// dfw_perfbench: the repository benchmark.
//
//   dfw_perfbench --workload design|fleet|serve --seed N --seconds S
//                 --trace 0|1
//
// Prints "# ..." notes (environment, input work, workload-specific
// figures), then as its last line one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": X, "unit": "<unit>"}, ...}}
//
// With --trace 0 the metrics are the workload's end-to-end figures, with
// --trace 1 its per-layer ones; run.py checks them against BENCHMARK.json
// and fills in 0 for the layers a workload bypasses. Exits 1 when an
// output check fails, 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: dfw_perfbench --workload design|fleet|serve --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 4 || !args.count("--workload") ||
      !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace")) {
    return usage();
  }
  RunConfig config;
  const std::string workload = args["--workload"];
  try {
    config.seed = std::stoull(args["--seed"]);
    config.seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return usage();
  }
  if (!(config.seconds > 0) || (args["--trace"] != "0" &&
                                args["--trace"] != "1")) {
    return usage();
  }
  config.trace = args["--trace"] == "1";
  Outcome (*run)(const RunConfig&) = nullptr;
  if (workload == "design") {
    run = run_design;
  } else if (workload == "fleet") {
    run = run_fleet;
  } else if (workload == "serve") {
    run = run_serve;
  } else {
    return usage();
  }

  note("env nproc=%ld cpu=\"%s\" compiler=\"%s\" build_type=%s "
       "workload=%s seed=%llu seconds=%g trace=%d",
       sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), PERFBENCH_COMPILER,
       PERFBENCH_BUILD_TYPE, workload.c_str(),
       static_cast<unsigned long long>(config.seed), config.seconds,
       config.trace ? 1 : 0);

  Outcome outcome;
  try {
    run_on_thread([&] { outcome = run(config); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfw_perfbench: %s\n", e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "dfw_perfbench: %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", m.value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
