#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

namespace perfbench {

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Cost::add(const Cost& other) {
  calls += other.calls;
  wall_ms += other.wall_ms;
  cpu_ms += other.cpu_ms;
  allocs += other.allocs;
}

Probe::Probe()
    : wall_start_(Clock::now()),
      cpu_start_ms_(thread_cpu_ms()),
      allocs_start_(thread_allocs()) {}

Cost Probe::cost() const {
  Cost c;
  c.calls = 1;
  c.allocs = thread_allocs() - allocs_start_;
  c.cpu_ms = thread_cpu_ms() - cpu_start_ms_;
  c.wall_ms = ms_since(wall_start_);
  return c;
}

void Ledger::add(std::string_view name, const Cost& cost) {
  auto it = costs_.find(name);
  if (it == costs_.end()) {
    it = costs_.emplace(std::string(name), Cost{}).first;
  }
  it->second.add(cost);
}

void Ledger::merge(const Ledger& other) {
  for (const auto& [name, cost] : other.costs_) {
    add(name, cost);
  }
}

Cost Ledger::get(std::string_view name) const {
  const auto it = costs_.find(name);
  return it == costs_.end() ? Cost{} : it->second;
}

double Ledger::wall_ms(std::initializer_list<std::string_view> names) const {
  double total = 0;
  for (const std::string_view name : names) {
    total += get(name).wall_ms;
  }
  return total;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Outcome::add_span(const Ledger& ledger, const std::string& span) {
  const Cost c = ledger.get(span);
  const double calls = c.calls == 0 ? 1.0 : static_cast<double>(c.calls);
  add(span + "_ms", c.wall_ms / calls, "ms");
  add(span + ".cpu_ms", c.cpu_ms / calls, "ms");
  add(span + ".allocs", static_cast<double>(c.allocs) / calls, "count");
}

void Outcome::check_failed(const std::string& what) {
  if (correct) {
    std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  }
  correct = false;
}

void note(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::fputc('\n', stdout);
}

void run_on_thread(const std::function<void()>& fn) {
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace perfbench
