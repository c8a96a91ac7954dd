#include "serve/cli.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "fw/parser.hpp"
#include "obs/export.hpp"
#include "serve/serve.hpp"
#include "serve/snapshot.hpp"

namespace dfw::serve {
namespace {

constexpr const char* kUsage =
    "usage: dfw_serve [options] <initial-policy-file>\n"
    "\n"
    "input:\n"
    "  --format=native            policy syntax (default native)\n"
    "  <initial-policy-file>      path, or - for stdin (not useful with\n"
    "                             the stdin command loop)\n"
    "\n"
    "serving:\n"
    "  --max-inflight=N  refuse batches past N in flight (default 0 =\n"
    "                    unbounded); refusals exit-code 1\n"
    "  --swap-retries=N  retry a transiently failed swap up to N times\n"
    "                    under exponential backoff (default 0)\n"
    "\n"
    "durability (docs/serve.md):\n"
    "  --snapshot=FILE   boot from FILE when it exists (byte-identical\n"
    "                    resume at the saved sequence; a corrupt or torn\n"
    "                    file is refused with exit 2), then save a\n"
    "                    crash-consistent snapshot after boot and after\n"
    "                    every successful swap (atomic write + rename)\n"
    "  --health-interval=N  print the health JSON after every N operator\n"
    "                    commands (default 0 = only on the health command)\n"
    "\n"
    "telemetry (docs/observability.md):\n"
    "  --metrics-interval=MS  run the in-core reporter: every MS\n"
    "                    milliseconds a dedicated thread snapshots\n"
    "                    metrics + health into a rolling window\n"
    "                    (default 0 = off)\n"
    "  --metrics-out=FILE  append one dfw-metrics-v1 JSONL record per\n"
    "                    reporter tick to FILE, plus a final record at\n"
    "                    quit (works without --metrics-interval too)\n"
    "\n"
    "commands (stdin, one per line):\n"
    "  swap FILE       compile FILE and publish it; prints the new version\n"
    "  batch FILE      classify FILE's packets; prints version + decisions\n"
    "  stats           print the metrics snapshot JSON (serve.* counters,\n"
    "                  fault-plane site counters overlaid when armed)\n"
    "  prom            print the snapshot as Prometheus text exposition\n"
    "  window          print the reporter's rolling window, one JSONL\n"
    "                  record per tick (empty until the reporter ticks)\n"
    "  health          print the health JSON (dfw-serve-health-v3)\n"
    "  reclaim         drain the retire limbo now\n"
    "  quit            flush --trace and --metrics-out output and exit\n"
    "\n"
    "The governance flags bound each swap's compile: --max-nodes the\n"
    "diagram, --deadline-ms the wall clock. A breached swap is rejected\n"
    "and the previous version keeps serving.\n"
    "\n";

constexpr std::string_view kTool = "dfw_serve";

std::optional<Policy> load_policy(const std::string& path,
                                  std::ostream& err) {
  const auto text = cli::slurp(path, err, kTool);
  if (!text.has_value()) {
    return std::nullopt;
  }
  try {
    return parse_policy(five_tuple_schema(), default_decisions(), *text);
  } catch (const ParseError& e) {
    err << "dfw_serve: " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

std::optional<std::vector<Packet>> load_packets(const std::string& path,
                                                std::size_t field_count,
                                                std::ostream& err) {
  const auto text = cli::slurp(path, err, kTool);
  if (!text.has_value()) {
    return std::nullopt;
  }
  std::vector<Packet> packets;
  std::istringstream lines(*text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    Packet packet;
    Value value = 0;
    while (fields >> value) {
      packet.push_back(value);
    }
    if (packet.empty()) {
      continue;  // blank or comment-only line
    }
    if (!fields.eof() || packet.size() != field_count) {
      err << "dfw_serve: " << path << ":" << line_no << ": expected "
          << field_count << " decimal field values\n";
      return std::nullopt;
    }
    packets.push_back(std::move(packet));
  }
  return packets;
}

}  // namespace

int run_serve_cli(const std::vector<std::string>& args, std::istream& in,
                  std::ostream& out, std::ostream& err) {
  cli::CommonOptions common;
  std::size_t max_inflight = 0;
  std::size_t swap_retries = 0;
  std::size_t health_interval = 0;
  std::size_t metrics_interval = 0;
  std::string metrics_out;
  std::string snapshot_path;
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out << kUsage << cli::kCommonUsage;
      return cli::kExitClean;
    }
    switch (cli::consume_common_flag(common, arg, err, kTool)) {
      case cli::FlagResult::kConsumed:
        continue;
      case cli::FlagResult::kError:
        return cli::kExitUsage;
      case cli::FlagResult::kNotMine:
        break;
    }
    if (const auto v = cli::flag_value(arg, "--max-inflight=")) {
      const auto n = cli::parse_size(*v);
      if (!n.has_value()) {
        err << "dfw_serve: bad --max-inflight value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      max_inflight = *n;
    } else if (const auto r = cli::flag_value(arg, "--swap-retries=")) {
      const auto n = cli::parse_size(*r);
      if (!n.has_value()) {
        err << "dfw_serve: bad --swap-retries value '" << *r << "'\n";
        return cli::kExitUsage;
      }
      swap_retries = *n;
    } else if (const auto h = cli::flag_value(arg, "--health-interval=")) {
      const auto n = cli::parse_size(*h);
      if (!n.has_value()) {
        err << "dfw_serve: bad --health-interval value '" << *h << "'\n";
        return cli::kExitUsage;
      }
      health_interval = *n;
    } else if (const auto m = cli::flag_value(arg, "--metrics-interval=")) {
      const auto n = cli::parse_size(*m);
      if (!n.has_value()) {
        err << "dfw_serve: bad --metrics-interval value '" << *m << "'\n";
        return cli::kExitUsage;
      }
      metrics_interval = *n;
    } else if (const auto o = cli::flag_value(arg, "--metrics-out=")) {
      if (o->empty()) {
        err << "dfw_serve: --metrics-out needs a file path\n";
        return cli::kExitUsage;
      }
      metrics_out = *o;
    } else if (const auto s = cli::flag_value(arg, "--snapshot=")) {
      if (s->empty()) {
        err << "dfw_serve: --snapshot needs a file path\n";
        return cli::kExitUsage;
      }
      snapshot_path = *s;
    } else if (arg.rfind("--", 0) == 0) {
      err << "dfw_serve: unknown option '" << arg << "'\n"
          << kUsage << cli::kCommonUsage;
      return cli::kExitUsage;
    } else {
      common.positional.push_back(arg);
    }
  }
  if (common.format.empty()) {
    common.format = "native";
  }
  if (common.format != "native") {
    err << "dfw_serve: unknown format '" << common.format << "'\n";
    return cli::kExitUsage;
  }
  if (common.positional.size() != 1) {
    err << kUsage << cli::kCommonUsage;
    return cli::kExitUsage;
  }

  // The swap governance comes from the shared flags; the data-plane
  // executor and the obs sinks come from the shared runtime.
  cli::CommonRuntime runtime(common);
  ServeOptions options;
  const RunOptions run = runtime.run_options();
  options.run.executor = run.executor;
  options.run.obs = run.obs;
  options.max_inflight_batches = max_inflight;
  options.swap_budgets.max_nodes = common.max_nodes;
  options.swap_deadline_ms = common.deadline_ms;
  options.swap_max_retries = swap_retries;
  options.telemetry_interval_ms = metrics_interval;

  // The JSONL sink outlives the core (declared first, destroyed last):
  // the reporter thread writes through on_telemetry until ~ServeCore
  // quiesces it, and the final record at quit shares the same mutex and
  // sequence counter.
  MetricsExporter exporter;
  std::ofstream metrics_file;
  std::mutex metrics_mu;
  std::uint64_t metrics_seq = 0;
  if (!metrics_out.empty()) {
    metrics_file.open(metrics_out, std::ios::trunc);
    if (!metrics_file) {
      err << "dfw_serve: cannot open --metrics-out file '" << metrics_out
          << "'\n";
      return cli::kExitUsage;
    }
    options.on_telemetry = [&](const TelemetryRecord& record) {
      std::lock_guard<std::mutex> lock(metrics_mu);
      metrics_file << exporter.jsonl(record.metrics, ++metrics_seq,
                                     record.uptime_ms);
      metrics_file.flush();  // each tick is durable — the file tails live
    };
  }

  const std::size_t field_count = five_tuple_schema().field_count();

  // Boot order: an existing snapshot wins (byte-identical resume at the
  // saved sequence); otherwise compile the boot policy as sequence 1. A
  // snapshot that exists but does not decode — truncated, bit-flipped,
  // wrong schema — or whose policy does not compile (not comprehensive)
  // is an input error (exit 2), never a crash and never silently
  // ignored: serving the stale boot policy when the operator expected
  // the snapshotted one would be the worse failure.
  std::optional<ServeCore> core;
  bool restored = false;
  if (!snapshot_path.empty() && std::filesystem::exists(snapshot_path)) {
    try {
      auto data =
          snapshot::decode(five_tuple_schema(), default_decisions(),
                           snapshot::read_file(snapshot_path));
      core.emplace(std::move(data), options);
      restored = true;
    } catch (const std::exception& e) {
      err << "dfw_serve: " << snapshot_path << ": " << e.what() << "\n";
      return cli::kExitUsage;
    }
  }
  if (!core.has_value()) {
    auto initial = load_policy(common.positional[0], err);
    if (!initial.has_value()) {
      return cli::kExitUsage;
    }
    try {
      core.emplace(std::move(*initial), options);
    } catch (const std::exception& e) {
      err << "dfw_serve: " << common.positional[0] << ": " << e.what()
          << "\n";
      return cli::kExitUsage;
    }
  }

  // Snapshot saves are availability-first: a failed save (disk full,
  // injected fault) is reported and counted, but the daemon keeps
  // serving — durability degrades, classification does not.
  const auto save_snapshot = [&]() {
    if (snapshot_path.empty()) {
      return;
    }
    try {
      snapshot::write_atomic(snapshot_path, core->snapshot_text());
    } catch (const Error& e) {
      err << "dfw_serve: snapshot save failed: " << e.what() << "\n";
    }
  };
  save_snapshot();  // the boot state is durable before the first command

  ServeCore::Shard shard = core->shard();
  out << "serving version=" << core->current_sequence()
      << (restored ? " (restored)" : "") << "\n";

  bool any_rejected = false;
  std::size_t commands = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty() || command[0] == '#') {
      continue;
    }
    std::string path;
    if (command == "quit") {
      break;
    } else if (command == "stats") {
      out << core->telemetry_now().metrics.to_json() << "\n";
    } else if (command == "prom") {
      out << exporter.prometheus(core->telemetry_now().metrics);
    } else if (command == "window") {
      for (const TelemetryRecord& record : core->telemetry_window()) {
        out << exporter.jsonl(record.metrics, record.tick,
                              record.uptime_ms);
      }
    } else if (command == "health") {
      out << core->health().to_json() << "\n";
    } else if (command == "reclaim") {
      out << "reclaimed " << core->reclaim() << " version(s)\n";
    } else if (command == "swap" && (words >> path)) {
      auto next = load_policy(path, err);
      if (!next.has_value()) {
        return cli::kExitUsage;
      }
      const auto result = core->swap(*next);
      if (result.ok()) {
        out << "swap ok version=" << result.value() << "\n";
        save_snapshot();
      } else {
        out << "swap rejected: " << result.error().what() << "\n";
        any_rejected = true;
      }
    } else if (command == "batch" && (words >> path)) {
      const auto packets = load_packets(path, field_count, err);
      if (!packets.has_value()) {
        return cli::kExitUsage;
      }
      const BatchResult result = shard.classify(*packets);
      if (result.status != ErrorCode::kOk) {
        out << "batch rejected: " << to_string(result.status) << "\n";
        any_rejected = true;
        continue;
      }
      std::vector<std::size_t> counts(default_decisions().size(), 0);
      for (const Decision d : result.decisions) {
        ++counts[d];
      }
      out << "batch ok version=" << result.version
          << " packets=" << result.decisions.size();
      for (std::size_t d = 0; d < counts.size(); ++d) {
        if (counts[d] != 0) {
          out << " " << default_decisions().name(static_cast<Decision>(d))
              << "=" << counts[d];
        }
      }
      out << "\n";
    } else {
      err << "dfw_serve: bad command '" << line << "'\n";
      return cli::kExitUsage;
    }
    ++commands;
    if (health_interval != 0 && commands % health_interval == 0) {
      out << core->health().to_json() << "\n";
    }
  }

  if (metrics_file.is_open()) {
    // One closing record regardless of interval: a reporterless run
    // still leaves the final counter state in the series.
    const TelemetryRecord final_record = core->telemetry_now();
    std::lock_guard<std::mutex> lock(metrics_mu);
    metrics_file << exporter.jsonl(final_record.metrics, ++metrics_seq,
                                   final_record.uptime_ms);
    metrics_file.flush();
  }

  const int trace_status = runtime.finish(err, kTool);
  if (trace_status != cli::kExitClean) {
    return trace_status;
  }
  return any_rejected ? cli::kExitFindings : cli::kExitClean;
}

}  // namespace dfw::serve
