// Deterministic fault injection: the failure plane of the runtime.
//
// The governance layer (rt/govern.hpp) made hostile *inputs* a first-class,
// testable condition. This header does the same for hostile *environments*:
// allocation failures mid-build, a classifier compile dying under memory
// pressure, a serialization write torn by the machine rebooting. Those
// failures are rare and non-reproducible in the wild, which is exactly why
// the recovery paths that handle them — serve's retry/last-good
// machinery, the snapshot loader's rejection paths — rot unless a test can
// trigger them on demand, deterministically, at a named point.
//
// A FaultPlan is a seeded schedule of injected failures. The library's hot
// paths carry *named injection sites* (fault::sites), each a single call to
// fault::hit(plan, site); a null plan short-circuits on one pointer test,
// so production runs are byte-identical and pay nothing — the same nullable
// borrowing rule as RunContext and ObsOptions, threaded through the same
// RunOptions. An armed site fires by throwing a structured dfw::Error
// (ErrorCode::kFaultInjected by default), which then travels the exact
// unwind path a real failure would.
//
// Determinism is the design center. Count triggers (fire on the Nth hit,
// then every `period` after) depend only on the per-site hit counter;
// probability triggers hash (seed, site, hit-index) through splitmix64, so
// the same seed replays the same schedule — there is no global RNG state
// to race on. Under concurrency the per-site counters are atomic: the
// *set* of fired hits per site is a pure function of the seed and the
// site's hit count, which is what the chaos harness's per-seed determinism
// gate asserts on (tests/chaos_test.cpp).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rt/govern.hpp"

namespace dfw {

namespace fault::sites {

/// Arena node materialisation — the allocation unit of FDD construction
/// (fired where the node budget is charged, fdd/arena.cpp).
inline constexpr const char* kArenaAlloc = "fdd.arena.alloc";
/// Entry into build_diagram (the construct phase boundary).
inline constexpr const char* kConstructPhase = "fdd.construct.phase";
/// Classifier compilation (engine/classifier.cpp). The name is kept
/// because fault plans refer to it.
inline constexpr const char* kBackendCompile = "engine.backend.compile";
/// Snapshot serialization (serve/snapshot.cpp, encode side).
inline constexpr const char* kSnapshotSave = "serve.snapshot.save";
/// Snapshot deserialization (serve/snapshot.cpp, decode side).
inline constexpr const char* kSnapshotLoad = "serve.snapshot.load";
/// A swap attempt's compile step (serve/serve.cpp, per attempt).
inline constexpr const char* kSwapCompile = "serve.swap.compile";
/// The publish step after a successful swap compile — fires between the
/// compiled version existing and it becoming visible, the torn-swap window.
inline constexpr const char* kSwapPublish = "serve.swap.publish";

}  // namespace fault::sites

/// One armed injection site. A spec fires by count, by probability, or
/// both (either trigger fires the hit).
struct FaultSpec {
  /// Exact site name (one of fault::sites, or any site a test defines).
  std::string site;
  /// Fire on the Nth hit of the site, 1-based; 0 disables the count
  /// trigger.
  std::uint64_t fire_on = 0;
  /// With fire_on: keep firing every `period` hits after the first fire
  /// (fire_on, fire_on+period, ...); 0 = fire exactly once.
  std::uint64_t period = 0;
  /// Bernoulli per hit, deterministic in (plan seed, site, hit index);
  /// 0 disables the probability trigger.
  double probability = 0.0;
  /// The structured error a fire throws. kFaultInjected is the transient
  /// class serve's retry loop heals; use other codes to mimic specific
  /// failures (e.g. kCapacityExceeded, which a swap must not retry).
  ErrorCode code = ErrorCode::kFaultInjected;
  /// Appended to the thrown error's message.
  std::string message;
};

/// A seeded, immutable-after-construction fault schedule. hit() is safe to
/// call from concurrent threads; all mutation is per-site atomic counters.
class FaultPlan {
 public:
  FaultPlan(std::uint64_t seed, std::vector<FaultSpec> specs);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Records a hit at `site`. Throws dfw::Error when an armed spec's
  /// trigger fires; a site no spec names costs one hash lookup. `site`
  /// must be a static string literal (the sites above), as everywhere the
  /// obs layer takes phase names.
  void hit(const char* site);

  /// Per-spec observation counts, in spec order (deterministic).
  struct SiteStats {
    std::string site;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };
  std::vector<SiteStats> stats() const;

  std::uint64_t total_hits() const;
  /// Total injected faults so far — the chaos gate's >= 200 denominator.
  std::uint64_t total_fires() const;
  std::uint64_t seed() const { return seed_; }

  /// The fault schedule as deterministic JSON (seed, per-site spec and
  /// counts) — the artifact the CI chaos-smoke job uploads.
  std::string to_json() const;

 private:
  struct Armed {
    FaultSpec spec;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
  };

  bool should_fire(const Armed& armed, std::uint64_t hit_index) const;

  std::uint64_t seed_;
  // Stable storage for the armed specs; site_index_ maps a site name to
  // the specs armed on it. Both are immutable after construction, so
  // lookups are lock-free.
  std::vector<std::unique_ptr<Armed>> armed_;
  std::vector<std::pair<std::string, std::vector<std::size_t>>> site_index_;
};

namespace fault {

/// The null-tolerant hook the instrumented paths call: one pointer test
/// when no plan is installed.
inline void hit(FaultPlan* plan, const char* site) {
  if (plan != nullptr) {
    plan->hit(site);
  }
}

}  // namespace fault
}  // namespace dfw
