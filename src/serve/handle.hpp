// The epoch-guarded classifier version store.
//
// A PolicyHandle owns the chain of compiled policy versions a serve
// daemon transitions through. Readers pin the current version for the
// duration of one batch without taking any lock (two epoch stores); the
// writer publishes a replacement atomically and moves the old version to
// a limbo list, from which it is freed only once every reader that could
// have pinned it has exited — the RCU discipline, built on
// rt/epoch.hpp. Invariants the serve tests assert:
//
//   * every batch runs against exactly one version (the one pinned);
//   * a version is never freed while any Pin on it is alive;
//   * retired versions are freed eventually once readers drain (no leak:
//     retire count == reclaim count at quiescence, plus the final
//     current version freed by the destructor).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/classifier.hpp"
#include "fw/policy.hpp"
#include "rt/epoch.hpp"

namespace dfw::serve {

/// One immutable published version: the policy as the operator submitted
/// it (what a crash-consistent snapshot saves) and its compiled
/// classifier, tagged with a monotonically increasing sequence number (1
/// for the initial version).
struct PolicyVersion {
  std::uint64_t sequence;
  Policy policy;
  Classifier classifier;

  PolicyVersion(std::uint64_t sequence, Policy policy, Classifier classifier)
      : sequence(sequence),
        policy(std::move(policy)),
        classifier(std::move(classifier)) {}
};

class PolicyHandle {
 public:
  /// Starts the chain at `initial` (sequence 1). The domain is borrowed
  /// and must outlive the handle.
  PolicyHandle(EpochDomain& domain, std::unique_ptr<PolicyVersion> initial);

  /// Frees the current version and any limbo remnants. All Pins must be
  /// gone and no concurrent publish may be running.
  ~PolicyHandle();

  PolicyHandle(const PolicyHandle&) = delete;
  PolicyHandle& operator=(const PolicyHandle&) = delete;

  /// A pinned version: the epoch critical section plus the version
  /// pointer loaded inside it. The referenced version stays valid for the
  /// Pin's lifetime; keep it for one batch, not longer — a long-lived Pin
  /// blocks reclamation of every later retirement.
  class Pin {
   public:
    Pin(Pin&& other) noexcept
        : domain_(other.domain_), slot_(other.slot_),
          version_(other.version_) {
      other.domain_ = nullptr;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    Pin& operator=(Pin&&) = delete;
    ~Pin() {
      if (domain_ != nullptr) {
        domain_->exit(slot_);
      }
    }

    const PolicyVersion& version() const { return *version_; }

   private:
    friend class PolicyHandle;
    Pin(EpochDomain& domain, std::size_t slot, const PolicyVersion* version)
        : domain_(&domain), slot_(slot), version_(version) {}

    EpochDomain* domain_;
    std::size_t slot_;
    const PolicyVersion* version_;
  };

  /// Lock-free reader entry: pins the version current at this instant on
  /// the caller's registered epoch slot.
  Pin pin(std::size_t slot) const {
    domain_.enter(slot);
    // seq_cst after the slot store: the publish/advance total-order
    // argument in rt/epoch.hpp is what makes this pointer safe to use
    // until the Pin exits.
    const PolicyVersion* v = current_.load(std::memory_order_seq_cst);
    return Pin(domain_, slot, v);
  }

  /// Writer: atomically replaces the current version and retires the old
  /// one into limbo tagged with the post-advance epoch. Serialized
  /// internally; safe against concurrent pins and other publishers.
  /// Returns the retired version's sequence number.
  std::uint64_t publish(std::unique_ptr<PolicyVersion> next);

  /// Frees every limbo version whose retire epoch all readers have
  /// passed. Called opportunistically after publish and at shutdown;
  /// callable any time. Returns the number of versions freed.
  std::size_t reclaim();

  /// Sequence of the version a pin() would observe right now.
  std::uint64_t current_sequence() const {
    return current_.load(std::memory_order_seq_cst)->sequence;
  }

  /// The current version without a pin. Safe only for callers that
  /// exclude publication for the reference's lifetime (the serve core's
  /// snapshot path holds the swap mutex); under a concurrent publish the
  /// version can be retired and freed underfoot.
  const PolicyVersion& current_unpinned() const {
    return *current_.load(std::memory_order_seq_cst);
  }

  /// Versions retired but not yet freed (diagnostic; racy by nature).
  std::size_t limbo_size() const;
  /// High-water mark of the limbo list since construction — the
  /// serve.limbo.peak gauge. A peak that tracks the swap count means
  /// reclamation is not keeping up (a pinned reader or a missing
  /// reclaim() call).
  std::size_t limbo_peak() const;
  /// Total versions retired / freed since construction.
  std::uint64_t retired_total() const {
    return retired_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t reclaimed_total() const {
    return reclaimed_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Retired {
    std::unique_ptr<PolicyVersion> version;
    std::uint64_t retire_epoch = 0;
  };

  EpochDomain& domain_;
  std::atomic<const PolicyVersion*> current_;
  mutable std::mutex writer_mu_;  // serializes publish/reclaim bookkeeping
  std::vector<Retired> limbo_;
  std::size_t limbo_peak_ = 0;  // under writer_mu_
  std::atomic<std::uint64_t> retired_total_{0};
  std::atomic<std::uint64_t> reclaimed_total_{0};
};

}  // namespace dfw::serve
