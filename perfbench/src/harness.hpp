// Measurement plumbing shared by the three workloads: clocks, per-layer
// cost ledgers, percentiles, and the run's result record.
//
// Layer costs are measured from outside the library: the workload wraps
// each of its own calls into a module's public function in span(), which
// records wall time, thread CPU time and the allocations the calling
// thread made (alloc_count.cpp) under a "<module>.<call>" name. With a
// null ledger span() only forwards the call, so the untraced run pays
// nothing for the instrumentation.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point start, Clock::time_point end);
double ms_since(Clock::time_point start);

/// CPU time consumed by the calling thread, in milliseconds.
double thread_cpu_ms();

/// Allocations (operator new calls) made by the calling thread so far.
std::uint64_t thread_allocs();

/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// The accumulated cost of every span recorded under one name.
struct Cost {
  std::uint64_t calls = 0;
  double wall_ms = 0;
  double cpu_ms = 0;
  std::uint64_t allocs = 0;

  void add(const Cost& other);
};

/// Reads the calling thread's clocks and allocation count on construction;
/// cost() is the difference up to now, as one call.
class Probe {
 public:
  Probe();
  Cost cost() const;

 private:
  Clock::time_point wall_start_;
  double cpu_start_ms_;
  std::uint64_t allocs_start_;
};

/// Per-layer cost totals keyed by span name. One ledger per thread;
/// merge() folds a worker's ledger into the run's.
class Ledger {
 public:
  void add(std::string_view name, const Cost& cost);
  void merge(const Ledger& other);
  /// The totals recorded under `name` (zero when none were).
  Cost get(std::string_view name) const;
  /// Summed wall time of the named spans.
  double wall_ms(std::initializer_list<std::string_view> names) const;

 private:
  std::map<std::string, Cost, std::less<>> costs_;
};

/// Calls fn() and, with a ledger, records its cost under `name`.
template <typename F>
std::invoke_result_t<F&> span(Ledger* ledger, std::string_view name,
                              F&& fn) {
  using Result = std::invoke_result_t<F&>;
  if (ledger == nullptr) {
    return fn();
  }
  const Probe probe;
  if constexpr (std::is_void_v<Result>) {
    fn();
    ledger->add(name, probe.cost());
  } else {
    Result result = fn();
    ledger->add(name, probe.cost());
    return result;
  }
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the output-check verdict, operation
/// counts, and its metrics (end-to-end ones untraced, per-layer ones
/// traced).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Adds "<span>_ms", "<span>.cpu_ms" and "<span>.allocs", each the mean
  /// per recorded call (zero when the span never ran).
  void add_span(const Ledger& ledger, const std::string& span);
  /// Marks the run incorrect and says why on stderr.
  void check_failed(const std::string& what);
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Prints one human-readable "# ..." line to stdout (before the result).
void note(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Runs fn on a new thread, waits for it, and rethrows what it threw.
void run_on_thread(const std::function<void()>& fn);

}  // namespace perfbench
