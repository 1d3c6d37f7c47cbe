#pragma once

#include <memory>
#include <span>

#include "hybridmem/placement.hpp"
#include "kvstore/factory.hpp"
#include "util/assert.hpp"
#include "util/status.hpp"
#include "workload/trace.hpp"

namespace mnemo::workload {
class CompiledTrace;
}

namespace mnemo::kvstore {

/// The paper's two-server deployment: one server instance pinned to
/// FastMem, one to SlowMem, both the same architecture, sharing the
/// platform (one HybridMemory, hence one LLC). This is the analogue of the
/// paper's modified YCSB core that "redirects requests across the two
/// server instances" according to the key placement.
class DualServer {
 public:
  /// Seed perturbation applied to the SlowMem instance's StoreConfig so
  /// the two instances draw distinct jitter streams, like two independent
  /// processes. Public so skeleton replay (DESIGN.md §14) can reproduce
  /// an instance's noise stream without building the store.
  static constexpr std::uint64_t kSlowSeedMix = 0x510'3141ULL;

  DualServer(hybridmem::HybridMemory& memory, StoreKind kind,
             const StoreConfig& base_config);

  /// Load every key of the trace into the server its placement names.
  /// Population happens in key order (the paper's load phase). On capacity
  /// failure the typed error carries the offending key, the bytes it
  /// needed, and the node's remaining capacity; keys already loaded stay
  /// loaded (the caller owns the deployment's lifetime).
  ///
  /// The trace must outlive this DualServer: key sizes are viewed through
  /// a span over the trace's own table, not deep-copied (every campaign
  /// cell replays the same shared trace — copying its per-key size table
  /// per cell was pure overhead).
  [[nodiscard]] util::Status populate(const workload::Trace& trace,
                                      const hybridmem::Placement& placement);

  /// Compiled-campaign populate (DESIGN.md §12): same key order, same
  /// routing, same typed errors as the Trace overload — but the per-key
  /// hash/digest come precomputed from the CompiledTrace, and each
  /// instance's slot pools are pre-sized (an allocation hint only; bucket
  /// growth schedules are part of the model and stay untouched).
  [[nodiscard]] util::Status populate(const workload::CompiledTrace& compiled,
                                      const hybridmem::Placement& placement);

  /// Execute one client request, routed by the placement given at
  /// populate(). Updates keep the key on its assigned server. A read that
  /// hits a poisoned SlowMem line is transparently remapped to FastMem
  /// (the move and remap costs charged to this request); a read whose
  /// transient retries exhaust is a typed error carrying the key.
  ///
  /// Defined inline — this is the replay loop's single entry point
  /// (DESIGN.md §8); the rare fault-recovery tail lives out of line.
  [[nodiscard]] util::Result<OpResult> execute(
      const workload::Request& request) {
    MNEMO_EXPECTS(request.key < key_sizes_.size());
    KeyValueStore& server = route(request.key);
    if (request.op != workload::OpType::kRead) {
      // kUpdate overwrites in place; kInsert creates the key (same put path
      // — the stores upsert). Writes are not fault targets.
      return server.put(request.key, key_sizes_[request.key]);
    }
    OpResult r = server.get(request.key);
    if (r.fault == hybridmem::FaultKind::kNone) [[likely]] return r;
    return recover_faulted_read(request, r);
  }

  /// Hinted variant of execute() for compiled-campaign replay: `hints`
  /// must be the KeyHints of request.key (CompiledTrace::key_hashes /
  /// key_digests). Behaviour is bit-identical to execute(request); the
  /// rare fault-recovery tail is shared.
  [[nodiscard]] util::Result<OpResult> execute(const workload::Request& request,
                                               const KeyHints& hints) {
    MNEMO_EXPECTS(request.key < key_sizes_.size());
    return execute(request.op, request.key, hints);
  }

  /// Unchecked hot-loop form taking the op/key streams directly: the
  /// compiled replay iterates CompiledTrace's flat arrays, whose keys were
  /// all bounds-validated once at compile time, so the per-request
  /// precondition check is hoisted along with the hashes.
  [[nodiscard]] util::Result<OpResult> execute(workload::OpType op,
                                               std::uint64_t key,
                                               const KeyHints& hints) {
    KeyValueStore& server = route(key);
    if (op != workload::OpType::kRead) {
      return server.put(key, key_sizes_[key], hints);
    }
    OpResult r = server.get(key, hints);
    if (r.fault == hybridmem::FaultKind::kNone) [[likely]] return r;
    return recover_faulted_read(
        workload::Request{static_cast<std::uint32_t>(key), op}, r);
  }

  [[nodiscard]] KeyValueStore& fast() noexcept { return *fast_; }
  [[nodiscard]] KeyValueStore& slow() noexcept { return *slow_; }
  [[nodiscard]] const KeyValueStore& fast() const noexcept { return *fast_; }
  [[nodiscard]] const KeyValueStore& slow() const noexcept { return *slow_; }
  [[nodiscard]] StoreKind kind() const noexcept { return kind_; }

  /// Combined op counters across both instances.
  [[nodiscard]] StoreStats combined_stats() const;

  /// Move one key's record to the other tier (delete + re-insert, like a
  /// live migration between the two server processes). Returns the
  /// simulated time the move cost. With faults armed, the migration first
  /// reads the source record — transient faults are retried with
  /// exponential backoff in simulated time (bounded by the plan's retry
  /// budget; exhaustion is a kRetriesExhausted error) and a poisoned
  /// source is recovered at the plan's remap cost. A full destination is a
  /// kCapacityExhausted error and the key stays put. Used by the dynamic
  /// re-tiering extension; Mnemo proper only does static placement.
  [[nodiscard]] util::Result<double> move_key(std::uint64_t key,
                                              hybridmem::NodeId to);

  [[nodiscard]] const hybridmem::Placement& placement() const noexcept {
    return placement_;
  }

 private:
  [[nodiscard]] KeyValueStore& route(std::uint64_t key) {
    return placement_.node_of(key) == hybridmem::NodeId::kFast ? *fast_
                                                               : *slow_;
  }

  /// Slow path of execute(): poisoned-line remap or transient-retry
  /// exhaustion. Only reached when the read reported a fault.
  [[nodiscard]] util::Result<OpResult> recover_faulted_read(
      const workload::Request& request, OpResult r);

  StoreKind kind_;
  std::unique_ptr<KeyValueStore> fast_;
  std::unique_ptr<KeyValueStore> slow_;
  hybridmem::Placement placement_{0, hybridmem::NodeId::kFast};
  std::span<const std::uint64_t> key_sizes_;
};

}  // namespace mnemo::kvstore
