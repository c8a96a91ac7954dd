#include "fleet/cli.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "cli_common.hpp"
#include "fleet/fleet.hpp"
#include "fw/format.hpp"
#include "synth/synth.hpp"

namespace dfw::fleet {
namespace {

constexpr const char* kUsage =
    "usage: dfw_fleet [options] <fleet-dir | manifest-file>\n"
    "       dfw_fleet --generate=N --out=DIR [generator options]\n"
    "\n"
    "input (a directory is scanned — *.fw native, *.rules iptables,\n"
    "*.acl cisco — anything else is read as a manifest: one\n"
    "'<format> <path> [chain=|acl=|name=]' line per device):\n"
    "  --chain=NAME      iptables chain for scanned configs (default INPUT)\n"
    "  --acl=ID          Cisco ACL id for scanned configs (default 101)\n"
    "\n"
    "analysis:\n"
    "  --no-simplify     skip the semantics-preserving simplify stage\n"
    "  --passes=a,b,c    run only these lint passes\n"
    "  --disable=a,b     remove lint passes\n"
    "  --compare=none|pairs|nway   cross-device comparison (default none)\n"
    "  --max-divergences=N         divergence records kept (default 64)\n"
    "\n"
    "output:\n"
    "  --output=text|json|sarif    stdout format (default text)\n"
    "  --report=FILE               also write the JSON report to FILE\n"
    "\n"
    "generator (writes a synthetic fleet, then exits):\n"
    "  --generate=N      number of devices\n"
    "  --out=DIR         output directory (created; must be empty or new)\n"
    "  --seed=S          fleet seed (default 1)\n"
    "  --rules=R         base rules per device (default 60)\n"
    "  --perturb=P       per-site perturbation percent (default 10)\n"
    "\n";

constexpr std::string_view kTool = "dfw_fleet";

struct CliOptions {
  cli::CommonOptions common;
  std::string chain = "INPUT";
  std::string acl = "101";
  bool no_simplify = false;
  std::vector<std::string> passes;
  std::vector<std::string> disabled;
  std::string compare = "none";
  std::size_t max_divergences = 64;
  std::string output = "text";
  std::string report_path;
  std::size_t generate = 0;
  std::string out_dir;
  std::size_t seed = 1;
  std::size_t rules = 60;
  std::size_t perturb = 10;
};

int run_generator(const CliOptions& opts, std::ostream& out,
                  std::ostream& err) {
  namespace fs = std::filesystem;
  if (opts.out_dir.empty()) {
    err << "dfw_fleet: --generate requires --out=DIR\n";
    return cli::kExitUsage;
  }
  std::error_code ec;
  fs::create_directories(opts.out_dir, ec);
  if (ec) {
    err << "dfw_fleet: cannot create " << opts.out_dir << ": "
        << ec.message() << "\n";
    return cli::kExitUsage;
  }

  FleetSynthConfig config;
  config.sites = opts.generate;
  config.base.num_rules = opts.rules;
  config.perturb_percent = static_cast<double>(opts.perturb);
  config.seed = opts.seed;
  const std::vector<Policy> fleet = make_fleet(config);

  std::string manifest;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "site%04zu.fw", i);
    const fs::path path = fs::path(opts.out_dir) / name;
    std::ofstream file(path, std::ios::binary);
    if (!file) {
      err << "dfw_fleet: cannot write " << path.string() << "\n";
      return cli::kExitUsage;
    }
    file << format_policy(fleet[i], default_decisions());
    manifest += std::string("native ") + name + " name=" + name + "\n";
  }
  const fs::path manifest_path = fs::path(opts.out_dir) / "fleet.manifest";
  std::ofstream file(manifest_path, std::ios::binary);
  if (!file) {
    err << "dfw_fleet: cannot write " << manifest_path.string() << "\n";
    return cli::kExitUsage;
  }
  file << manifest;
  out << "wrote " << fleet.size() << " device(s) + fleet.manifest to "
      << opts.out_dir << "\n";
  return cli::kExitClean;
}

}  // namespace

int run_fleet_cli(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  CliOptions opts;
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out << kUsage << cli::kCommonUsage;
      return cli::kExitClean;
    }
    switch (cli::consume_common_flag(opts.common, arg, err, kTool)) {
      case cli::FlagResult::kConsumed:
        continue;
      case cli::FlagResult::kError:
        return cli::kExitUsage;
      case cli::FlagResult::kNotMine:
        break;
    }
    if (arg == "--no-simplify") {
      opts.no_simplify = true;
    } else if (const auto v = cli::flag_value(arg, "--chain=")) {
      opts.chain = *v;
    } else if (const auto v = cli::flag_value(arg, "--acl=")) {
      opts.acl = *v;
    } else if (const auto v = cli::flag_value(arg, "--passes=")) {
      opts.passes = cli::split_csv(*v);
    } else if (const auto v = cli::flag_value(arg, "--disable=")) {
      opts.disabled = cli::split_csv(*v);
    } else if (const auto v = cli::flag_value(arg, "--compare=")) {
      opts.compare = *v;
      if (opts.compare != "none" && opts.compare != "pairs" &&
          opts.compare != "nway") {
        err << "dfw_fleet: unknown compare mode '" << opts.compare << "'\n";
        return cli::kExitUsage;
      }
    } else if (const auto v = cli::flag_value(arg, "--max-divergences=")) {
      const auto parsed = cli::parse_size(*v);
      if (!parsed.has_value()) {
        err << "dfw_fleet: bad --max-divergences value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      opts.max_divergences = *parsed;
    } else if (const auto v = cli::flag_value(arg, "--output=")) {
      opts.output = *v;
      if (opts.output != "text" && opts.output != "json" &&
          opts.output != "sarif") {
        err << "dfw_fleet: unknown output '" << opts.output << "'\n";
        return cli::kExitUsage;
      }
    } else if (const auto v = cli::flag_value(arg, "--report=")) {
      opts.report_path = *v;
    } else if (const auto v = cli::flag_value(arg, "--generate=")) {
      const auto parsed = cli::parse_size(*v);
      if (!parsed.has_value() || *parsed == 0) {
        err << "dfw_fleet: bad --generate value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      opts.generate = *parsed;
    } else if (const auto v = cli::flag_value(arg, "--out=")) {
      opts.out_dir = *v;
    } else if (const auto v = cli::flag_value(arg, "--seed=")) {
      const auto parsed = cli::parse_size(*v);
      if (!parsed.has_value()) {
        err << "dfw_fleet: bad --seed value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      opts.seed = *parsed;
    } else if (const auto v = cli::flag_value(arg, "--rules=")) {
      const auto parsed = cli::parse_size(*v);
      if (!parsed.has_value() || *parsed == 0) {
        err << "dfw_fleet: bad --rules value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      opts.rules = *parsed;
    } else if (const auto v = cli::flag_value(arg, "--perturb=")) {
      const auto parsed = cli::parse_size(*v);
      if (!parsed.has_value() || *parsed > 100) {
        err << "dfw_fleet: bad --perturb value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      opts.perturb = *parsed;
    } else if (arg.rfind("--", 0) == 0) {
      err << "dfw_fleet: unknown option '" << arg << "'\n"
          << kUsage << cli::kCommonUsage;
      return cli::kExitUsage;
    } else {
      opts.common.positional.push_back(arg);
    }
  }

  if (opts.generate != 0) {
    if (!opts.common.positional.empty()) {
      err << "dfw_fleet: --generate takes no positional arguments\n";
      return cli::kExitUsage;
    }
    return run_generator(opts, out, err);
  }
  if (opts.common.positional.size() != 1) {
    err << kUsage << cli::kCommonUsage;
    return cli::kExitUsage;
  }

  // Resolve the fleet: a directory is scanned; anything else is read as a
  // manifest whose relative paths resolve against the manifest's parent.
  namespace fs = std::filesystem;
  const std::string& input = opts.common.positional[0];
  std::vector<FleetItem> items;
  std::error_code ec;
  if (fs::is_directory(input, ec)) {
    try {
      items = scan_fleet_dir(input);
    } catch (const fs::filesystem_error& e) {
      err << "dfw_fleet: cannot scan " << input << ": " << e.what() << "\n";
      return cli::kExitUsage;
    }
    for (FleetItem& item : items) {
      item.chain = opts.chain;
      item.acl = opts.acl;
    }
  } else {
    const auto text = cli::slurp(input, err, kTool);
    if (!text.has_value()) {
      return cli::kExitUsage;
    }
    std::string error;
    const auto parsed = parse_fleet_manifest(*text, &error);
    if (!parsed.has_value()) {
      err << "dfw_fleet: " << input << ": " << error << "\n";
      return cli::kExitUsage;
    }
    items = *parsed;
    const fs::path base = fs::path(input).parent_path();
    for (FleetItem& item : items) {
      if (!base.empty() && fs::path(item.path).is_relative()) {
        item.path = (base / item.path).string();
      }
    }
  }
  if (items.empty()) {
    err << "dfw_fleet: " << input << ": no devices found\n";
    return cli::kExitUsage;
  }

  std::vector<FleetSource> sources;
  sources.reserve(items.size());
  for (FleetItem& item : items) {
    const auto text = cli::slurp(item.path, err, kTool);
    if (!text.has_value()) {
      return cli::kExitUsage;
    }
    sources.push_back(FleetSource{std::move(item), *text});
  }

  cli::CommonRuntime runtime(opts.common);
  FleetOptions options;
  options.run = runtime.run_options();
  options.simplify = !opts.no_simplify;
  options.lint.passes = opts.passes;
  options.lint.disabled = opts.disabled;
  options.compare = opts.compare == "pairs"   ? CompareMode::kPairs
                    : opts.compare == "nway" ? CompareMode::kNway
                                             : CompareMode::kNone;
  options.max_divergences = opts.max_divergences;

  const FleetReport report = run_fleet(sources, options);

  if (opts.output == "json") {
    out << render_fleet_json(report) << "\n";
  } else if (opts.output == "sarif") {
    out << render_fleet_sarif(report) << "\n";
  } else {
    out << render_fleet_text(report);
  }
  if (!opts.report_path.empty()) {
    std::ofstream file(opts.report_path, std::ios::binary);
    if (!file) {
      err << "dfw_fleet: cannot write " << opts.report_path << "\n";
      return cli::kExitUsage;
    }
    file << render_fleet_json(report) << "\n";
  }
  const int trace_status = runtime.finish(err, kTool);
  if (trace_status != cli::kExitClean) {
    return trace_status;
  }
  if (!report.complete || !report.compare_complete) {
    return cli::kExitFindings;
  }
  for (const DeviceReport& dev : report.devices) {
    if (dev.status != DeviceStatus::kOk) {
      return cli::kExitFindings;
    }
  }
  return report.divergences_total == 0 ? cli::kExitClean
                                       : cli::kExitFindings;
}

}  // namespace dfw::fleet
