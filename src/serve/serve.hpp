// The serve core: a long-running classification service over a hot-
// swappable compiled policy.
//
// Two planes share one ServeCore. The *data plane* — daemon shard
// threads, each owning a Shard — classifies packet batches against the
// compiled classifier; a batch pins exactly one published version for
// its whole duration (lock-free, two epoch stores) and reports that
// version's sequence alongside its decisions, so replaying the batch
// serially against the same version reproduces the output byte for
// byte. The *operator plane* calls swap(): the replacement policy is
// compiled under the swap governance budgets (a hostile or enormous
// policy must not wedge the daemon), atomically published, and the
// predecessor retired through the epoch limbo — freed only once every
// in-flight batch that could have pinned it has finished. No lookup is
// ever dropped or blocked by a swap.
//
// Admission control: max_inflight_batches bounds data-plane concurrency;
// a batch over the bound is refused with ErrorCode::kOverloaded (counted
// in serve.batch.rejected) rather than queued without bound — the
// governance layer's partial-result philosophy applied to a service.
//
// Telemetry: with telemetry_interval_ms set, a dedicated reporter thread
// snapshots metrics + health every interval into a bounded rolling window
// (TelemetryRecord), overlaying the fault plane's per-site counters
// (rt.fault.site.*) when a FaultPlan is installed, and hands each record
// to an optional on_telemetry callback — the serve CLI appends them as
// dfw-metrics-v1 JSONL (obs/export.hpp). The thread is quiesced before
// any teardown in ~ServeCore; interval 0 (the default) starts no thread
// and is byte-identical to a reporterless core.
//
// Self-healing: swap() never disturbs the served version on failure (the
// last-good guarantee), and it fights back before failing. Transient
// faults — injected faults from a FaultPlan (rt/fault.hpp), per-attempt
// deadline breaches, allocation failure — are retried up to
// swap_max_retries times under exponential backoff with deterministic
// jitter; deterministic errors (budget breach, capacity breach, invalid
// policy) fail fast. Every recovery step is counted
// (serve.swap.retries/failed) and surfaced through health().
//
// Everything observable lands in options.run.obs under the serve.*
// names (obs/names.hpp); null sinks cost pointer tests, as everywhere.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fw/policy.hpp"
#include "rt/govern.hpp"
#include "rt/run_options.hpp"
#include "serve/handle.hpp"

namespace dfw::serve {

namespace snapshot {
struct SnapshotData;
}  // namespace snapshot

struct TelemetryRecord;

/// Knobs for a ServeCore, in the library's options-struct idiom.
struct ServeOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.executor`
  /// (borrowed; null = serial) shards each admitted batch's lookups;
  /// the submitting thread holds the version pin across the join, so
  /// pool workers need no epoch slots of their own. `run.obs` receives
  /// the serve.* metrics and batch/swap spans. `run.context` is *not*
  /// consulted on the data plane (a serve loop outlives any one run);
  /// swaps are governed separately by swap_budgets/swap_deadline_ms.
  RunOptions run = {};

  /// Packets per pool task inside one batch (see CompileOptions).
  std::size_t batch_grain = 512;

  /// Maximum concurrently admitted batches across all shards; 0 means
  /// unbounded. The bound is what keeps retire-to-reclaim latency finite
  /// under load.
  std::size_t max_inflight_batches = 0;

  /// Governance for each swap's compile (0 fields = unlimited): node
  /// budget against diagram blowup, deadline against pathological
  /// policies. A breached swap is rejected; the served version is
  /// untouched.
  Budgets swap_budgets = {};
  std::int64_t swap_deadline_ms = 0;

  /// Extra swap attempts after a *transient* failure (injected fault,
  /// per-attempt deadline breach, std::bad_alloc). 0 = fail fast.
  /// Deterministic failures (budget or capacity breach, invalid policy)
  /// never retry.
  std::size_t swap_max_retries = 0;

  /// Exponential backoff between retry attempts: the n-th retry sleeps
  /// min(initial << (n-1), max) milliseconds plus deterministic jitter in
  /// [0, delay/2] derived from swap_jitter_seed — reproducible schedules
  /// for tests, decorrelated thundering herds in deployments.
  std::uint64_t swap_backoff_initial_ms = 1;
  std::uint64_t swap_backoff_max_ms = 100;
  std::uint64_t swap_jitter_seed = 0;

  /// Telemetry reporter cadence in milliseconds; 0 (default) starts no
  /// reporter thread. Each tick snapshots metrics + health into the
  /// rolling window and bumps serve.telemetry.tick.count.
  std::uint64_t telemetry_interval_ms = 0;

  /// Records the rolling window retains (oldest evicted first); at
  /// least 1 when the reporter runs.
  std::size_t telemetry_window = 64;

  /// Invoked on the reporter thread with each tick's record, after it
  /// enters the window — the export hook (the CLI appends JSONL here).
  /// Must not call back into this core's operator plane (swap/snapshot);
  /// reading stats/health is fine. Exceptions are swallowed: telemetry
  /// must never take down the data plane.
  std::function<void(const TelemetryRecord&)> on_telemetry;
};

/// One batch's outcome. `status` is kOk on success and kOverloaded when
/// admission control refused the batch (decisions then empty,
/// version 0). `version` is the sequence of the exact classifier version
/// every decision in the batch came from.
struct BatchResult {
  std::uint64_t version = 0;
  std::vector<Decision> decisions;
  ErrorCode status = ErrorCode::kOk;
};

/// Point-in-time counters (monotonic unless noted).
struct ServeStats {
  std::uint64_t swaps = 0;           ///< successful publishes
  std::uint64_t swaps_rejected = 0;  ///< refused swaps (any cause)
  std::uint64_t swap_retries = 0;    ///< retry attempts across all swaps
  std::uint64_t swap_failed = 0;     ///< swaps failed after self-healing
  std::uint64_t batches = 0;         ///< admitted batches
  std::uint64_t batches_rejected = 0;
  std::uint64_t lookups = 0;         ///< packets across admitted batches
  std::uint64_t retired = 0;         ///< versions moved to limbo
  std::uint64_t reclaimed = 0;       ///< limbo versions freed
  std::uint64_t inflight = 0;        ///< currently admitted (not monotonic)
  std::uint64_t limbo = 0;           ///< currently awaiting drain
  std::uint64_t limbo_peak = 0;      ///< high-water mark of limbo
};

/// A point-in-time health report: what is being served, whether the last
/// operator action succeeded, and the full counter set. `to_json()` is
/// the `health` command's wire format (schema dfw-serve-health-v3).
struct ServeHealth {
  std::uint64_t sequence = 0;  ///< served version right now
  bool last_swap_ok = true;  ///< false after a failed swap, true again
                             ///< after the next success (true at boot)
  ServeStats stats;

  std::string to_json() const;
};

/// One telemetry observation: the registry snapshot (with the fault
/// plane's cumulative site counters overlaid when a plan is installed —
/// obs/names.hpp kFaultSitePrefix) plus the health report, stamped with
/// the reporter tick that produced it and the core's uptime. On-demand
/// records from telemetry_now() carry the tick count at the call.
struct TelemetryRecord {
  std::uint64_t tick = 0;
  std::uint64_t uptime_ms = 0;
  MetricsSnapshot metrics;
  ServeHealth health;
};

class ServeCore {
 public:
  /// Compiles `initial` (ungoverned — the boot policy is trusted) and
  /// starts serving it as sequence 1. The policy must be comprehensive
  /// (std::logic_error otherwise).
  ServeCore(Policy initial, ServeOptions options);

  /// Resumes from a decoded snapshot (serve/snapshot.hpp): compiles the
  /// snapshot's policy exactly as a boot does (same compile path, same
  /// obs and faults, ungoverned — a snapshot is trusted like the boot
  /// policy) and serves it at the recorded sequence, so the restart
  /// classifies byte-identically to the pre-crash daemon. Throws
  /// std::logic_error when the policy is not comprehensive. Subsequent
  /// swaps number from sequence + 1.
  ServeCore(snapshot::SnapshotData restored, ServeOptions options);

  /// All Shards must be destroyed first; no batch may be in flight.
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// A data-plane endpoint: one per daemon thread. Construction claims
  /// an epoch slot (locked, off the hot path); classify() is lock-free
  /// with respect to swaps. A Shard must not outlive its ServeCore.
  class Shard {
   public:
    BatchResult classify(std::span<const Packet> packets);

    Shard(Shard&& other) noexcept
        : core_(other.core_), registration_(std::move(other.registration_)) {
      other.core_ = nullptr;
    }
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;
    Shard& operator=(Shard&&) = delete;
    ~Shard() = default;

   private:
    friend class ServeCore;
    explicit Shard(ServeCore& core);

    ServeCore* core_;
    EpochRegistration registration_;
  };

  /// Claims a shard. Throws std::runtime_error when the epoch domain is
  /// out of slots (EpochDomain::kMaxSlots concurrent shards).
  Shard shard() { return Shard(*this); }

  /// Convenience for callers without a long-lived shard (tools, tests):
  /// registers a temporary slot per call — correct, but pays the
  /// registration scan; daemons keep a Shard per thread instead.
  BatchResult classify_batch(std::span<const Packet> packets);

  /// Operator plane: compile `next` under the swap governance and
  /// atomically publish it. On success returns the new version's
  /// sequence; on failure returns the error and keeps serving the
  /// current version (last-good guarantee — a failed attempt's compiled
  /// artifacts are released eagerly, before any retry sleep, never
  /// parked in limbo). Transient failures retry under the
  /// swap_max_retries/backoff knobs; deterministic failures (budget or
  /// capacity breach, invalid policy) fail fast. Concurrent swaps
  /// serialize; each drains what it can from limbo on the way out.
  Result<std::uint64_t> swap(const Policy& next);

  /// Frees every drained limbo version now (also runs inside swap()).
  std::size_t reclaim();

  std::uint64_t current_sequence() const {
    return handle_.current_sequence();
  }
  const ServeOptions& options() const { return options_; }
  ServeStats stats() const;

  /// Liveness/readiness for operators: the served sequence, the last
  /// swap's outcome, and the counters. Lock-free reads; callable
  /// from any thread.
  ServeHealth health() const;

  /// A point-in-time telemetry record, on demand: what a reporter tick
  /// would capture, without entering the window or bumping the tick
  /// counter. With no metrics registry installed the snapshot is empty
  /// and health still reports.
  TelemetryRecord telemetry_now() const;

  /// A copy of the rolling telemetry window, oldest first (empty when
  /// the reporter is off or has not ticked yet). Callable from any
  /// thread.
  std::vector<TelemetryRecord> telemetry_window() const;

  /// Reporter ticks taken so far.
  std::uint64_t telemetry_ticks() const {
    return telemetry_ticks_.load(std::memory_order_relaxed);
  }

  /// The served version serialized as a crash-consistent snapshot
  /// (serve/snapshot.hpp, format dfws 2): sequence, policy text,
  /// checksum. Serialized against swaps so the snapshot is always one
  /// published version, never a blend.
  std::string snapshot_text();

 private:
  BatchResult classify_pinned(std::span<const Packet> packets,
                              std::size_t slot);
  void start_reporter();
  void stop_reporter();
  void reporter_tick();

  ServeOptions options_;
  EpochDomain domain_;
  PolicyHandle handle_;
  std::uint64_t next_sequence_ = 2;  // under the swap mutex in swap()
  std::mutex swap_mu_;
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> swaps_rejected_{0};
  std::atomic<std::uint64_t> swap_retries_{0};
  std::atomic<std::uint64_t> swap_failed_{0};
  std::atomic<bool> last_swap_ok_{true};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batches_rejected_{0};
  std::atomic<std::uint64_t> lookups_{0};

  // Telemetry plane. The window and the stop flag share telemetry_mu_;
  // the reporter thread is started last in construction and quiesced
  // first in destruction, so every tick observes a fully built core.
  std::chrono::steady_clock::time_point boot_time_{
      std::chrono::steady_clock::now()};
  std::atomic<std::uint64_t> telemetry_ticks_{0};
  mutable std::mutex telemetry_mu_;
  std::condition_variable telemetry_cv_;
  bool telemetry_stop_ = false;
  std::deque<TelemetryRecord> window_;
  std::thread reporter_;
};

}  // namespace dfw::serve
