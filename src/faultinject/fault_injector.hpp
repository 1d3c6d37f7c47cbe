#pragma once

#include <cstdint>

#include "faultinject/fault_plan.hpp"
#include "util/rng.hpp"

namespace mnemo::faultinject {

/// Deterministic per-deployment fault source. One injector belongs to one
/// HybridMemory instance (shared-nothing, like everything per-cell) and is
/// consulted on every SlowMem LLC-miss access. All randomness comes from a
/// private xoshiro stream seeded by (plan.seed, stream); the poison set is
/// a pure hash of the same pair — so a (plan, stream) pair replays
/// bit-identically, and an injector that triggers zero events leaves the
/// deployment's timing exactly equal to the fault-free platform's.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint64_t stream);

  /// Outcome of the transient-fault draw for one SlowMem read.
  struct ReadOutcome {
    bool faulted = false;  ///< the read drew a transient fault
    bool failed = false;   ///< retries exhausted; the access failed
    double extra_ns = 0.0;  ///< simulated retry cost to add to the access
  };

  /// Permanent-fault membership: true iff `object_id`'s SlowMem copy is
  /// poisoned. Pure (no state advanced) and stable for the injector's
  /// lifetime; reads must be remapped by the caller.
  [[nodiscard]] bool poisoned(std::uint64_t object_id) const noexcept;

  /// Draw the transient-fault outcome for one SlowMem read. The private
  /// RNG advances a deterministic number of draws per call, so the stream
  /// position depends only on the access sequence.
  ReadOutcome on_slow_read();

  /// Bandwidth multiplier for the next SlowMem access; advances the
  /// window clock. 1.0 outside degradation episodes.
  double next_bandwidth_factor();

  /// Count a poisoned read the caller is about to remap.
  void note_poison_hit() noexcept { ++stats_.poison_hits; }

  /// Suppression: while paused() the memory layer must not consult the
  /// injector at all (structural moves, restores). Managed by FaultPause.
  void pause() noexcept { ++pause_depth_; }
  void resume() noexcept { --pause_depth_; }
  [[nodiscard]] bool paused() const noexcept { return pause_depth_ > 0; }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint64_t stream() const noexcept { return stream_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

 private:
  FaultPlan plan_;
  std::uint64_t stream_;
  std::uint64_t poison_salt_;
  util::Rng rng_;
  FaultStats stats_;
  std::uint64_t slow_accesses_ = 0;  ///< bw window clock
  int pause_depth_ = 0;
};

/// RAII suppression scope around structural operations (the erase/put/
/// restore legs of a key move) that must not consume fault events. Safe on
/// a null injector (healthy platform).
class FaultPause {
 public:
  explicit FaultPause(FaultInjector* injector) noexcept
      : injector_(injector) {
    if (injector_ != nullptr) injector_->pause();
  }
  ~FaultPause() {
    if (injector_ != nullptr) injector_->resume();
  }
  FaultPause(const FaultPause&) = delete;
  FaultPause& operator=(const FaultPause&) = delete;

 private:
  FaultInjector* injector_;
};

}  // namespace mnemo::faultinject
