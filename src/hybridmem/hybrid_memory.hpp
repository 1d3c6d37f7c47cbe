#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "faultinject/fault_injector.hpp"
#include "hybridmem/access.hpp"
#include "hybridmem/emulation_profile.hpp"
#include "hybridmem/llc_model.hpp"
#include "hybridmem/memory_node.hpp"
#include "util/assert.hpp"

namespace mnemo::hybridmem {

/// The hybrid memory system: FastMem + SlowMem as a flat address-space
/// extension (no hardware caching of SlowMem in FastMem — the paper's
/// assumption), fronted by a shared LLC.
///
/// Objects (key-value records) are registered on a node; every access is
/// priced by (a) the LLC if the whole object is resident, otherwise (b) the
/// owning node's latency/bandwidth under the caller's AccessTraits. All
/// times are simulated nanoseconds on a virtual clock; nothing here touches
/// the wall clock.
class HybridMemory {
 public:
  explicit HybridMemory(const EmulationProfile& profile);

  /// Place a new object. Returns false if the node is out of capacity.
  [[nodiscard]] bool place(std::uint64_t object_id, std::uint64_t bytes,
                           NodeId node);

  /// Remove an object entirely. No-op if unknown.
  void remove(std::uint64_t object_id);

  /// Change an object's size in place (record update with a different
  /// value size). Returns false if the node cannot fit the growth.
  /// Inline: every record-update PUT resizes its object (DESIGN.md §8).
  [[nodiscard]] bool resize(std::uint64_t object_id, std::uint64_t new_bytes) {
    ObjectInfo* info = find_object(object_id);
    MNEMO_EXPECTS(info != nullptr);
    if (new_bytes > info->bytes) {
      if (!node(info->node).allocate(new_bytes - info->bytes)) return false;
    } else if (new_bytes < info->bytes) {
      node(info->node).release(info->bytes - new_bytes);
    }
    info->bytes = new_bytes;
    llc_.invalidate(object_id);
    return true;
  }

  [[nodiscard]] std::optional<NodeId> locate(std::uint64_t object_id) const;
  [[nodiscard]] std::optional<std::uint64_t> object_size(
      std::uint64_t object_id) const;

  /// Price one logical access to a placed object. `traits.streamed_bytes`
  /// of 0 means "touch metadata only" and streams the object's own size
  /// instead. Requires the object to be placed. Defined inline: every
  /// GET/PUT payload touch lands here (DESIGN.md §8).
  AccessResult access(std::uint64_t object_id, MemOp op,
                      const AccessTraits& traits) {
    const ObjectInfo* info = find_object(object_id);
    MNEMO_EXPECTS(info != nullptr);

    AccessTraits effective = traits;
    if (effective.streamed_bytes == 0) effective.streamed_bytes = info->bytes;

    AccessResult result;
    if (llc_.access(object_id, info->bytes)) {
      result.ns = llc_.hit_ns(effective.streamed_bytes) *
                  effective.latency_touches;
      if (op == MemOp::kWrite) result.ns *= effective.write_discount;
    } else {
      // Faults live on the SlowMem medium and only fire on LLC misses; an
      // unarmed (or paused) injector leaves this path bit-identical to the
      // healthy platform.
      double bw_factor = 1.0;
      double extra_ns = 0.0;
      if (injector_ && !injector_->paused() && info->node == NodeId::kSlow) {
        if (op == MemOp::kRead && injector_->poisoned(object_id)) {
          result.fault = FaultKind::kPoisoned;
          injector_->note_poison_hit();
        } else {
          bw_factor = injector_->next_bandwidth_factor();
          if (op == MemOp::kRead) {
            const auto outcome = injector_->on_slow_read();
            extra_ns = outcome.extra_ns;
            if (outcome.faulted) result.fault = FaultKind::kTransient;
            result.failed = outcome.failed;
          }
        }
      }
      result.ns =
          node(info->node).access_ns(effective, op, bw_factor) + extra_ns;
      // A read whose retries exhausted delivered no data, so it must not
      // leave the line cached — a retry has to face the medium again.
      if (result.failed) llc_.invalidate(object_id);
    }
    return result;
  }

  /// Price a raw access against a node, bypassing placement and LLC — used
  /// by microbenchmarks that characterize the nodes themselves (Table I).
  [[nodiscard]] double raw_access_ns(NodeId node, const AccessTraits& traits,
                                     MemOp op) const;

  [[nodiscard]] const MemoryNode& node(NodeId id) const noexcept {
    return id == NodeId::kFast ? fast_ : slow_;
  }
  [[nodiscard]] MemoryNode& node(NodeId id) noexcept {
    return id == NodeId::kFast ? fast_ : slow_;
  }
  [[nodiscard]] const LlcModel& llc() const noexcept { return llc_; }
  [[nodiscard]] const EmulationProfile& profile() const noexcept {
    return profile_;
  }

  /// Pre-size the object table and LLC for `max_objects` dense IDs so the
  /// replay hot path performs no steady-state allocations (DESIGN.md §8).
  /// Callers that know the trace key count (DualServer::populate) invoke
  /// this once up front; everything still works, just slower, without it.
  void reserve_objects(std::size_t max_objects);

  /// Total bytes resident across both nodes.
  [[nodiscard]] std::uint64_t total_used_bytes() const noexcept;

  /// Reset LLC state (between experiment phases) without moving data.
  void drop_caches() { llc_.clear(); }

  /// Arm deterministic fault injection on this platform's SlowMem. No-op
  /// for an empty plan. `stream` makes independent deployments (campaign
  /// cells, retry attempts) draw independent fault sequences from the same
  /// plan seed. Must be called at most once, before any access.
  void arm_faults(const faultinject::FaultPlan& plan, std::uint64_t stream);

  /// The armed injector, or nullptr on a healthy platform.
  [[nodiscard]] faultinject::FaultInjector* fault_injector() noexcept {
    return injector_.get();
  }
  [[nodiscard]] const faultinject::FaultInjector* fault_injector()
      const noexcept {
    return injector_.get();
  }

  /// Fault events absorbed so far (all-zero on a healthy platform).
  [[nodiscard]] faultinject::FaultStats fault_stats() const noexcept {
    return injector_ ? injector_->stats() : faultinject::FaultStats{};
  }

 private:
  struct ObjectInfo {
    std::uint64_t bytes = 0;
    NodeId node = NodeId::kFast;
    bool present = false;
  };

  // Object IDs are record keys, dense [0, key_count) (a Placement
  // guarantee), so the table is a flat vector indexed by ID with a
  // presence flag — no hashing on the access hot path.
  [[nodiscard]] ObjectInfo* find_object(std::uint64_t object_id) {
    if (object_id >= objects_.size()) return nullptr;
    ObjectInfo& info = objects_[static_cast<std::size_t>(object_id)];
    return info.present ? &info : nullptr;
  }
  [[nodiscard]] const ObjectInfo* find_object(std::uint64_t object_id) const {
    return const_cast<HybridMemory*>(this)->find_object(object_id);
  }

  EmulationProfile profile_;
  MemoryNode fast_;
  MemoryNode slow_;
  LlcModel llc_;
  std::vector<ObjectInfo> objects_;
  std::unique_ptr<faultinject::FaultInjector> injector_;
};

}  // namespace mnemo::hybridmem
