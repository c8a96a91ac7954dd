// Workload "serve": reads beside writes on one ServeCore (default backend,
// flat_slab) booted on a 400-rule policy.
//
// Two reader threads, each with its own Shard, run an open loop: one
// 512-packet batch from a synth_trace pool every 1/kBatchRatePerShard
// seconds, whatever the previous batch did, and each batch is timed from
// the moment it was due. Meanwhile an operator thread swaps through a
// ring of perturbed versions at a fixed cadence. Then the operator swaps
// the boot policy back in, and a closed-loop saturation phase follows,
// the readers classifying back to back. The set-up (a ServeCore boot and
// its shards' first batches) is timed on the operator thread between
// swaps.
//
// Traced, every other batch and every other swap runs under a span (the
// rest give the untraced comparison for the overhead), and each traced
// swap is followed by a direct Classifier::compile of the same policy.
// After the timeline the benchmark calls build_reduced_fdd directly on
// the ring's policies and classify_into on the boot policy.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "engine/classifier.hpp"
#include "engine/trace.hpp"
#include "fdd/construct.hpp"
#include "fdd/stats.hpp"
#include "serve/serve.hpp"
#include "synth/synth.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dfw::Policy;
using std::chrono::microseconds;

constexpr std::size_t kRules = 400;
constexpr std::uint64_t kBaseSeed = 2004;
constexpr std::size_t kRing = 16;
constexpr double kPerturbPercent = 10;
constexpr std::size_t kPoolPackets = std::size_t{1} << 15;
constexpr std::size_t kBatch = 512;
constexpr std::size_t kReaders = 2;
// Offered load per shard, absolute: 4000 batches/s = 2.048 M packets/s.
constexpr double kBatchRatePerShard = 4000;
// At 20 s runs this gives over 100 swaps, ten of them beyond swap_ms_p90.
constexpr double kSwapPeriodMs = 90;
// Share of the run spent in the open loop; the rest is saturation.
constexpr double kOpenShare = 0.5;
// Set-up is measured on the operator thread right after every
// kSwapsPerSetup-th swap, so the set-ups spread over the open loop and
// their median sees the machine the batches do. A set-up compiles like a
// swap does, and both fit in one swap period.
constexpr std::size_t kSwapsPerSetup = 8;
// Every kCheckEvery-th batch of a reader is replayed through evaluate.
constexpr std::size_t kCheckEvery = 256;
// Readers sleep until this long before a batch is due, then spin.
constexpr microseconds kSpinLead{80};
// Traced only: direct classify_into batches on the boot classifier.
constexpr std::size_t kClassifyProbeBatches = 2000;

struct BatchRecord {
  double latency_us = 0;     // due -> done
  double queue_wait_us = 0;  // due -> shard free (previous batch overran)
  double gen_late_us = 0;    // shard free -> classify began
  bool traced = false;
  double span_us = 0;        // traced: the Shard::classify span
};

struct Sample {
  std::size_t offset = 0;
  std::uint64_t version = 0;
  std::vector<dfw::Decision> decisions;
};

struct ReaderLog {
  std::vector<BatchRecord> open;
  std::uint64_t saturation_lookups = 0;
  std::uint64_t batches = 0;
  std::uint64_t rejected = 0;
  std::vector<Sample> samples;
  Ledger ledger;
  std::exception_ptr error;
};

void wait_until(Clock::time_point due) {
  if (Clock::now() + kSpinLead < due) {
    std::this_thread::sleep_until(due - kSpinLead);
  }
  while (Clock::now() < due) {
  }
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return ms_between(a, b) * 1e3;
}

// The moment the saturation phase starts: set by the operator once the
// boot policy is served again, read by the readers.
using PhaseStart = std::atomic<Clock::rep>;

void reader(dfw::serve::ServeCore& core,
            const std::vector<dfw::Packet>& pool, std::size_t index,
            Clock::time_point open_start, Clock::time_point open_end,
            Clock::duration saturation, const PhaseStart& saturation_start,
            bool trace, ReaderLog& log) {
  try {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    dfw::serve::ServeCore::Shard shard = core.shard();
    // Classifies one batch; traced, returns its span's wall time in us.
    const auto classify = [&](std::size_t offset, bool traced) {
      const std::span<const dfw::Packet> batch(pool.data() + offset, kBatch);
      const double span_before = log.ledger.get("serve.classify").wall_ms;
      dfw::serve::BatchResult result =
          span(traced ? &log.ledger : nullptr, "serve.classify",
               [&] { return shard.classify(batch); });
      const double span_us =
          (log.ledger.get("serve.classify").wall_ms - span_before) * 1e3;
      ++log.batches;
      if (result.status != dfw::ErrorCode::kOk) {
        ++log.rejected;
      } else if (log.batches % kCheckEvery == 0) {
        log.samples.push_back(
            {offset, result.version, std::move(result.decisions)});
      }
      return span_us;
    };
    const auto offset_of = [&](std::uint64_t i) {
      return static_cast<std::size_t>((i * kReaders + index) * 997 * 61) %
             (pool.size() - kBatch);
    };

    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kBatchRatePerShard));
    Clock::time_point due = open_start + period * index / kReaders;
    Clock::time_point free_at = due;
    for (std::uint64_t i = 0; due < open_end; ++i, due += period) {
      wait_until(due);
      const Clock::time_point ready = std::max(due, free_at);
      const Clock::time_point start = Clock::now();
      const bool traced = trace && i % 2 == 1;
      const double span_us = classify(offset_of(i), traced);
      free_at = Clock::now();
      BatchRecord record;
      record.latency_us = us_between(due, free_at);
      record.queue_wait_us = us_between(due, ready);
      record.gen_late_us = us_between(ready, start);
      record.traced = traced;
      record.span_us = span_us;
      log.open.push_back(record);
    }
    while (saturation_start.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Clock::time_point saturation_end =
        Clock::time_point(Clock::duration(saturation_start.load())) +
        saturation;
    for (std::uint64_t i = 0; Clock::now() < saturation_end; ++i) {
      classify(offset_of(i), false);
      log.saturation_lookups += kBatch;
    }
  } catch (...) {
    log.error = std::current_exception();
  }
}

struct SwapRecord {
  std::size_t ring = 0;  // index of the policy swapped in
  bool traced = false;
  double ms = 0;
  double compile_ms = 0;  // traced: a direct compile of the same policy
};

struct OperatorLog {
  std::vector<SwapRecord> swaps;
  std::map<std::uint64_t, std::size_t> version_to_ring;
  std::uint64_t failed = 0;
  Ledger ledger;
  std::exception_ptr error;
};

// Swaps through the ring during the open loop, then back to the boot
// policy, and starts the saturation phase.
void operate(dfw::serve::ServeCore& core, const std::vector<Policy>& ring,
             Clock::time_point start, Clock::time_point end, bool trace,
             const std::function<void()>& set_up,
             PhaseStart& saturation_start, OperatorLog& log) {
  try {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kSwapPeriodMs));
    std::size_t k = 0;
    for (Clock::time_point due = start + period; due < end;
         due += period, ++k) {
      std::this_thread::sleep_until(due);
      SwapRecord record;
      record.ring = (k + 1) % ring.size();
      if (due + period >= end) {
        record.ring = 0;  // the last swap restores the boot policy
      }
      record.traced = trace && k % 2 == 1;
      const auto t0 = Clock::now();
      const dfw::Result<std::uint64_t> result =
          span(record.traced ? &log.ledger : nullptr, "serve.swap",
               [&] { return core.swap(ring[record.ring]); });
      record.ms = ms_since(t0);
      if (record.traced) {
        // Compiled right after the swap, on the same thread, so the
        // difference is the swap's own cost rather than a change of
        // machine speed between the two.
        const Probe probe;
        (void)dfw::Classifier::compile(ring[record.ring]);
        const Cost cost = probe.cost();
        log.ledger.add("engine.compile", cost);
        record.compile_ms = cost.wall_ms;
      }
      log.swaps.push_back(record);
      if (result.ok()) {
        log.version_to_ring[result.value()] = record.ring;
      } else {
        ++log.failed;
      }
      if (k % kSwapsPerSetup == 0) {
        set_up();
      }
    }
  } catch (...) {
    log.error = std::current_exception();
  }
  saturation_start.store(Clock::now().time_since_epoch().count());
}

}  // namespace

Outcome run_serve(const RunConfig& config) {
  Outcome out;
  // The boot policy is the same for every seed (README.md says why); the
  // seed draws the ring's perturbations and the traffic.
  dfw::Rng base_rng(kBaseSeed);
  dfw::Rng rng(config.seed);
  dfw::SynthConfig synth;
  synth.num_rules = kRules;
  std::vector<Policy> ring;
  ring.push_back(dfw::synth_policy(synth, base_rng));
  for (std::size_t i = 1; i < kRing; ++i) {
    ring.push_back(dfw::perturb_policy(ring[0], kPerturbPercent, rng));
  }
  const std::vector<dfw::Packet> pool =
      dfw::synth_trace(ring[0], kPoolPackets, rng);
  const dfw::serve::ServeOptions options;

  // Set-up: boot compile and shard claims, then one batch per shard.
  std::vector<double> setup_s;
  const std::function<void()> set_up = [&] {
    const auto start = Clock::now();
    {
      dfw::serve::ServeCore core(ring[0], options);
      for (std::size_t r = 0; r < kReaders; ++r) {
        dfw::serve::ServeCore::Shard shard = core.shard();
        (void)shard.classify(
            std::span<const dfw::Packet>(pool.data(), kBatch));
      }
    }
    setup_s.push_back(ms_since(start) / 1e3);
  };

  dfw::serve::ServeCore core(ring[0], options);
  std::vector<ReaderLog> readers(kReaders);
  OperatorLog op;
  op.version_to_ring[core.current_sequence()] = 0;
  const auto open_start = Clock::now() + std::chrono::milliseconds(20);
  const auto open_end =
      open_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(config.seconds *
                                                     kOpenShare));
  const auto saturation = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds * (1 - kOpenShare)));
  PhaseStart saturation_start{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back(reader, std::ref(core), std::cref(pool), r,
                           open_start, open_end, saturation,
                           std::cref(saturation_start), config.trace,
                           std::ref(readers[r]));
    }
    threads.emplace_back(operate, std::ref(core), std::cref(ring),
                         open_start, open_end, config.trace,
                         std::cref(set_up),
                         std::ref(saturation_start), std::ref(op));
    for (std::thread& t : threads) {
      t.join();
    }
  }
  const double saturation_s =
      std::chrono::duration<double>(saturation).count();
  for (const ReaderLog& log : readers) {
    if (log.error) {
      std::rethrow_exception(log.error);
    }
  }
  if (op.error) {
    std::rethrow_exception(op.error);
  }
  core.reclaim();
  const dfw::serve::ServeStats stats = core.stats();
  if (setup_s.empty()) {
    set_up();
  }

  // Output check: replay sampled batches on the version they report.
  std::size_t replayed = 0;
  for (const ReaderLog& log : readers) {
    for (const Sample& s : log.samples) {
      const auto it = op.version_to_ring.find(s.version);
      if (it == op.version_to_ring.end()) {
        out.check_failed("serve: batch reports an unknown version");
        continue;
      }
      const Policy& policy = ring[it->second];
      for (std::size_t j = 0; j < kBatch; ++j) {
        if (policy.evaluate(pool[s.offset + j]) != s.decisions[j]) {
          out.check_failed("serve: replayed batch disagrees with evaluate");
          break;
        }
      }
      ++replayed;
    }
  }

  std::vector<double> latency_us;
  std::vector<double> traced_latency_us;
  double queue_wait_us = 0;
  double gen_late_us = 0;
  // Traced batches: latency from due, and the parts it is made of.
  double traced_latency_total_us = 0;
  double traced_wait_us = 0;
  double traced_span_us = 0;
  std::uint64_t saturation_lookups = 0;
  std::uint64_t batches = 0;
  std::uint64_t rejected = 0;
  Ledger ledger;
  for (const ReaderLog& log : readers) {
    for (const BatchRecord& b : log.open) {
      (b.traced ? traced_latency_us : latency_us).push_back(b.latency_us);
      queue_wait_us += b.queue_wait_us;
      gen_late_us += b.gen_late_us;
      if (b.traced) {
        traced_latency_total_us += b.latency_us;
        traced_wait_us += b.queue_wait_us + b.gen_late_us;
        traced_span_us += b.span_us;
      }
    }
    saturation_lookups += log.saturation_lookups;
    batches += log.batches;
    rejected += log.rejected;
    ledger.merge(log.ledger);
  }
  ledger.merge(op.ledger);
  out.attempted = batches + op.swaps.size();
  out.failed = rejected + op.failed;
  std::vector<double> swap_ms;
  for (const SwapRecord& r : op.swaps) {
    swap_ms.push_back(r.ms);
  }
  const double lookups_per_s =
      static_cast<double>(saturation_lookups) / saturation_s;
  const auto open_batches =
      static_cast<double>(latency_us.size() + traced_latency_us.size());

  note("serve: %zu-rule boot policy, ring of %zu, %zu readers, batch %zu; "
       "offered %.0f batches/s per shard (%.3f M packets/s total), swap "
       "every %.0f ms; %zu sampled batches replayed",
       kRules, kRing, kReaders, kBatch, kBatchRatePerShard,
       kBatchRatePerShard * kBatch * kReaders / 1e6, kSwapPeriodMs,
       replayed);
  note("serve: batch_us_p50 = %.3f us, batch_us_p99 = %.3f us (%zu "
       "batches), lookups_per_s = %.0f 1/s, swap_ms_p50 = %.3f ms, "
       "swap_ms_p90 = %.3f ms (%zu swaps), failed_frac = %.4f, "
       "peak_rss_mb = %.1f MB",
       percentile(latency_us, 50), percentile(latency_us, 99),
       latency_us.size(), lookups_per_s, percentile(swap_ms, 50),
       percentile(swap_ms, 90), swap_ms.size(),
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       peak_rss_mb());

  if (!config.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("op_ms_p50", percentile(latency_us, 50) / 1e3, "ms");
    out.add("ops_per_s", lookups_per_s, "1/s");
    return out;
  }

  // Direct calls into fdd and engine on the ring's policies, on a thread
  // of their own like the swaps.
  std::size_t nodes = 0;
  Ledger direct;
  run_on_thread([&] {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const dfw::Fdd fdd = span(&direct, "fdd.construct", [&] {
        return dfw::build_reduced_fdd(ring[i]);
      });
      nodes += dfw::compute_stats(fdd).nodes;
      if (i != 0) {
        continue;
      }
      const dfw::Classifier classifier = dfw::Classifier::compile(ring[i]);
      std::vector<dfw::Decision> decisions(kBatch);
      for (std::size_t b = 0; b < kClassifyProbeBatches; ++b) {
        const std::size_t offset = (b * 7919) % (pool.size() - kBatch);
        span(&direct, "engine.classify", [&] {
          classifier.classify_into(
              std::span<const dfw::Packet>(pool.data() + offset, kBatch),
              decisions);
        });
      }
    }
  });
  ledger.merge(direct);

  // A traced swap's cost beyond compiling the policy it swapped in.
  double swap_overhead_ms = 0;
  double traced_swaps = 0;
  for (const SwapRecord& r : op.swaps) {
    if (r.traced) {
      swap_overhead_ms += r.ms - r.compile_ms;
      ++traced_swaps;
    }
  }
  swap_overhead_ms /= traced_swaps;

  out.add_span(ledger, "fdd.construct");
  out.add_span(ledger, "engine.compile");
  out.add_span(ledger, "serve.swap");
  out.add("fdd.nodes",
          static_cast<double>(nodes) / static_cast<double>(ring.size()),
          "count");
  const Cost engine = ledger.get("engine.classify");
  const double engine_packets = static_cast<double>(engine.calls * kBatch);
  out.add("engine.classify_ns_per_pkt", engine.wall_ms * 1e6 / engine_packets,
          "ns");
  out.add("engine.classify.allocs",
          static_cast<double>(engine.allocs) /
              static_cast<double>(engine.calls),
          "count");
  const Cost served = ledger.get("serve.classify");
  const double served_packets = static_cast<double>(served.calls * kBatch);
  out.add("serve.classify_ns_per_pkt", served.wall_ms * 1e6 / served_packets,
          "ns");
  out.add("serve.classify.cpu_ns_per_pkt",
          served.cpu_ms * 1e6 / served_packets, "ns");
  out.add("serve.classify.allocs",
          static_cast<double>(served.allocs) /
              static_cast<double>(served.calls),
          "count");
  out.add("serve.swap_overhead_ms", swap_overhead_ms, "ms");
  out.add("serve.queue_wait_us", queue_wait_us / open_batches, "us");
  out.add("serve.gen_late_us", gen_late_us / open_batches, "us");
  out.add("serve.limbo_peak", static_cast<double>(stats.limbo_peak), "count");
  const double traced_p50 = percentile(traced_latency_us, 50);
  const double untraced_p50 = percentile(latency_us, 50);
  out.add("trace.e2e_ms", traced_p50 / 1e3, "ms");
  out.add("trace.untraced_e2e_ms", untraced_p50 / 1e3, "ms");
  out.add("trace.overhead_frac", traced_p50 / untraced_p50 - 1, "frac");
  out.add("trace.reconciled_frac",
          (traced_wait_us + traced_span_us) / traced_latency_total_us,
          "frac");
  const double traced_n = static_cast<double>(traced_latency_us.size());
  const double traced_swap_ms = ledger.get("serve.swap").wall_ms / traced_swaps;
  note("serve: traced batch %.3f us = wait %.3f (queue + generator) + "
       "Shard::classify %.3f us (means); traced swap %.3f ms = compile "
       "%.3f + rest %.3f ms",
       traced_latency_total_us / traced_n, traced_wait_us / traced_n,
       traced_span_us / traced_n, traced_swap_ms,
       traced_swap_ms - swap_overhead_ms, swap_overhead_ms);
  return out;
}

}  // namespace perfbench
