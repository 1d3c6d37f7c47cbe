#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "hybridmem/placement.hpp"
#include "kvstore/factory.hpp"
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

  /// Load every key of the compiled trace into the server its placement
  /// names (DESIGN.md §12). Population happens in key order (the paper's
  /// load phase), each put carrying the key's precomputed hash, and
  /// each instance's slot pools are pre-sized (an allocation hint only;
  /// bucket growth schedules are part of the model and stay untouched). On
  /// capacity failure the typed error carries the offending key, the bytes
  /// it needed, and the node's remaining capacity; keys already loaded
  /// stay loaded (the caller owns the deployment's lifetime).
  ///
  /// The trace behind `compiled` must outlive this DualServer: key sizes
  /// are viewed through a span over the trace's own table, not deep-copied
  /// (every campaign cell replays the same shared trace). The
  /// CompiledTrace itself is read only during the call.
  [[nodiscard]] util::Status populate(const workload::CompiledTrace& compiled,
                                      const hybridmem::Placement& placement);

  /// Execute one client request, routed by the placement given at
  /// populate(). Updates keep the key on its assigned server; a write the
  /// server's node cannot fit is the same typed kCapacityExhausted error
  /// populate() returns. A read that hits a poisoned SlowMem line is
  /// transparently remapped to FastMem (the move and remap costs charged
  /// to this request); a read whose transient retries exhaust is a typed
  /// error carrying the key.
  ///
  /// `hints` must be the KeyHints of `key` (CompiledTrace::key_hash).
  /// Unchecked: `key` must be a key of the populated trace — the replay
  /// loops iterate CompiledTrace's flat streams, whose keys the Trace
  /// validated once. Defined inline — this is the replay loop's single
  /// entry point (DESIGN.md §8); the rare fault-recovery tail lives out of
  /// line.
  [[nodiscard]] util::Result<OpResult> execute(workload::OpType op,
                                               std::uint64_t key,
                                               const KeyHints& hints) {
    KeyValueStore& server = route(key);
    if (op != workload::OpType::kRead) {
      // kUpdate overwrites in place; kInsert creates the key (same put path
      // — the stores upsert). Writes are not fault targets, so a failed put
      // is a full node.
      const OpResult r = server.put(key, key_sizes_[key], hints);
      if (!r.ok) [[unlikely]] return capacity_error("replay", server, key);
      return r;
    }
    OpResult r = server.get(key, hints);
    if (r.fault == hybridmem::FaultKind::kNone) [[likely]] return r;
    return recover_faulted_read(key, r);
  }

  [[nodiscard]] KeyValueStore& fast() noexcept { return *fast_; }
  [[nodiscard]] KeyValueStore& slow() noexcept { return *slow_; }
  [[nodiscard]] const KeyValueStore& fast() const noexcept { return *fast_; }
  [[nodiscard]] const KeyValueStore& slow() const noexcept { return *slow_; }
  [[nodiscard]] StoreKind kind() const noexcept { return kind_; }

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
  [[nodiscard]] util::Result<OpResult> recover_faulted_read(std::uint64_t key,
                                                            OpResult r);

  /// The typed error of a put `server` could not fit: `stage` names the
  /// caller, and the error carries the key, the bytes it needed and the
  /// node's remaining capacity.
  [[nodiscard]] util::Error capacity_error(std::string_view stage,
                                           KeyValueStore& server,
                                           std::uint64_t key) const;

  StoreKind kind_;
  std::unique_ptr<KeyValueStore> fast_;
  std::unique_ptr<KeyValueStore> slow_;
  hybridmem::Placement placement_{0, hybridmem::NodeId::kFast};
  std::span<const std::uint64_t> key_sizes_;
};

}  // namespace mnemo::kvstore
