#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/record.hpp"
#include "kvstore/service_profile.hpp"
#include "util/rng.hpp"

namespace mnemo::kvstore {

/// Result of one store operation. `service_ns` is the simulated end-to-end
/// service time of the request (CPU + memory + jitter). `fault` reports an
/// injected memory fault the operation absorbed: kTransient with ok ==
/// false means the read exhausted its retries; kPoisoned means the payload
/// lives on a poisoned SlowMem line and must be remapped by the caller.
struct OpResult {
  bool ok = false;
  double service_ns = 0.0;
  hybridmem::FaultKind fault = hybridmem::FaultKind::kNone;
};

/// Construction-time options shared by all store architectures.
struct StoreConfig {
  hybridmem::NodeId node = hybridmem::NodeId::kFast;
  std::uint64_t seed = 0x5706e;
  /// Disable service-time jitter and tail spikes (ablation).
  bool deterministic_service = false;
};

/// Campaign-invariant per-key values a caller may precompute once and
/// replay into every cell (workload::CompiledTrace, DESIGN.md §12). The
/// values MUST equal what the store would compute itself — they are an
/// optimization contract, not an override: `hash` is util::mix64(key)
/// (the bucket hash of both chained tables). Probe counts, chain order
/// and rehash schedule are therefore untouched.
struct KeyHints {
  std::uint64_t hash = 0;
};

/// The stochastic service-time tail every operation passes through
/// (KeyValueStore::finalize): multiplicative gaussian jitter with a floor,
/// plus an occasional tail spike. A standalone value type so skeleton
/// replay (SensitivityEngine::replay_skeleton, DESIGN.md §14) can advance
/// a repeat sibling's noise stream over a recorded deterministic skeleton
/// with the exact arithmetic and rng consumption of a full replay.
class ServiceNoise {
 public:
  ServiceNoise(const ServiceProfile& profile, bool deterministic,
               std::uint64_t seed)
      : jitter_sigma_(profile.jitter_sigma),
        tail_spike_prob_(profile.tail_spike_prob),
        tail_spike_mult_(profile.tail_spike_mult),
        deterministic_(deterministic),
        rng_(seed) {}

  /// The noise stream of one server instance: the same profile resolution
  /// and rng seeding KeyValueStore's constructor performs.
  [[nodiscard]] static ServiceNoise for_instance(const StoreConfig& config,
                                                 StoreKind kind) {
    return ServiceNoise(default_profile(kind), config.deterministic_service,
                        config.seed ^ (static_cast<std::uint64_t>(kind) << 56));
  }

  /// Scale one operation's deterministic service time by the next noise
  /// draw. Every call consumes exactly the rng sequence one served
  /// operation would, so an independent replica of the same
  /// (profile, seed) stream stays in lockstep with a live instance.
  double apply(double ns) {
    if (deterministic_) return ns;
    const double z = rng_.gaussian();
    double factor = 1.0 + jitter_sigma_ * z;
    factor = std::max(0.5, factor);
    if (tail_spike_prob_ > 0.0 && rng_.next_double() < tail_spike_prob_) {
      factor *= tail_spike_mult_;
    }
    return ns * factor;
  }

 private:
  double jitter_sigma_;
  double tail_spike_prob_;
  double tail_spike_mult_;
  bool deterministic_;
  util::Rng rng_;
};

/// Abstract in-memory key-value store bound to one memory node of the
/// hybrid system — the analogue of the paper's `numactl`-pinned server
/// process. Keys are dense 64-bit IDs; values carry an explicit size.
///
/// Every operation returns its simulated service time; the store never
/// consults the wall clock.
class KeyValueStore {
 public:
  KeyValueStore(hybridmem::HybridMemory& memory, const StoreConfig& config,
                StoreKind kind);
  virtual ~KeyValueStore();

  KeyValueStore(const KeyValueStore&) = delete;
  KeyValueStore& operator=(const KeyValueStore&) = delete;

  /// Fetch the value for `key`. ok == false if absent. `hints` must
  /// follow the KeyHints contract above.
  virtual OpResult get(std::uint64_t key, const KeyHints& hints) = 0;

  /// Insert or update `key` with a `value_size`-byte value; `hints` must
  /// follow the KeyHints contract. ok == false if the node lacks capacity;
  /// no store evicts, so the key's record and its node accounting then
  /// stay as they were.
  virtual OpResult put(std::uint64_t key, std::uint64_t value_size,
                       const KeyHints& hints) = 0;

  /// get/put for callers without precomputed hints: derive them by the
  /// KeyHints contract, so both forms are the same operation.
  OpResult get(std::uint64_t key) { return get(key, {util::mix64(key)}); }
  OpResult put(std::uint64_t key, std::uint64_t value_size) {
    return put(key, value_size, {util::mix64(key)});
  }

  /// Pre-size internal tables for `keys` dense keys so populate/replay
  /// avoid growth reallocations. Purely an allocation hint: observable
  /// bucket/rehash schedules are never pre-sized (their growth is part of
  /// the modelled overhead accounting). Default: no-op.
  virtual void reserve_keys(std::size_t /*keys*/) {}

  /// Delete `key`. ok == false if absent.
  virtual OpResult erase(std::uint64_t key) = 0;

  [[nodiscard]] virtual std::size_t record_count() const = 0;

  /// Bytes of index/metadata overhead this engine currently maintains (in
  /// addition to record payloads) — registered against the node.
  [[nodiscard]] virtual std::uint64_t overhead_bytes() const = 0;

  [[nodiscard]] StoreKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::string_view name() const { return to_string(kind_); }
  [[nodiscard]] hybridmem::NodeId node() const noexcept {
    return config_.node;
  }
  [[nodiscard]] const ServiceProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] hybridmem::HybridMemory& memory() noexcept { return memory_; }

  /// Skeleton tap for a placement group's leader (DESIGN.md §14): while
  /// armed, finalize() records each operation's deterministic pre-noise
  /// service time through `cursor` before applying noise. The cursor is
  /// shared across both DualServer instances so the writes land in op
  /// order. Arm only on a fault-free deployment after populate; pass
  /// nullptr to disarm. Purely observational — results, rng streams and
  /// statistics are untouched.
  void set_skeleton_tap(double** cursor) noexcept { skeleton_tap_ = cursor; }

 protected:
  /// Apply jitter/tail noise and stamp the result. Defined inline: it
  /// closes every operation on the replay hot path.
  OpResult finalize(bool ok, double ns) {
    const hybridmem::FaultKind fault = pending_fault_;
    // A read whose transient retries exhausted never delivered the data:
    // the operation fails regardless of what the store layer concluded.
    if (pending_failed_) ok = false;
    pending_fault_ = hybridmem::FaultKind::kNone;
    pending_failed_ = false;
    if (skeleton_tap_ != nullptr) *(*skeleton_tap_)++ = ns;
    // Multiplicative noise: the request-to-request variability a real
    // client observes. The rng stream advances identically regardless of
    // data placement, so measured-vs-estimated differences reflect model
    // error, not divergent random sequences.
    return OpResult{ok, noise_.apply(ns), fault};
  }

  /// Price an index walk: `hot_probes` structure touches expected to be
  /// cache resident (upper tree levels, hot buckets) plus `cold_probes`
  /// dependent misses paid at node latency x the profile's sensitivity.
  [[nodiscard]] double index_walk_ns(std::uint32_t hot_probes,
                                     std::uint32_t cold_probes) const {
    const auto& prof = memory_.profile();
    const double hot = static_cast<double>(hot_probes) * prof.llc_latency_ns;
    const double cold = static_cast<double>(cold_probes) *
                        memory_.node(config_.node).spec().latency_ns *
                        profile_.latency_sensitivity;
    const double cpu = static_cast<double>(hot_probes + cold_probes) *
                       profile_.cpu_per_probe_ns;
    return hot + cold + cpu;
  }

  /// Price the payload movement of a GET/PUT against the hybrid memory
  /// (LLC-aware), applying the profile's amplification/overlap/discount.
  /// Defined inline: one call per GET/PUT on the replay hot path.
  hybridmem::AccessResult payload_access(std::uint64_t key,
                                         std::uint64_t bytes,
                                         hybridmem::MemOp op) {
    const double amp = op == hybridmem::MemOp::kRead
                           ? profile_.read_stream_amplification
                           : profile_.write_stream_amplification;
    hybridmem::AccessTraits traits;
    traits.latency_touches = 1;
    traits.streamed_bytes =
        static_cast<std::uint64_t>(static_cast<double>(bytes) * amp);
    traits.latency_sensitivity = profile_.latency_sensitivity;
    traits.bandwidth_overlap = profile_.bandwidth_overlap;
    traits.write_discount = profile_.write_discount;
    const hybridmem::AccessResult access = memory_.access(key, op, traits);
    pending_fault_ = std::max(pending_fault_, access.fault);
    pending_failed_ = pending_failed_ || access.failed;
    return access;
  }

  /// Keep the node-side accounting of index/journal overhead in sync:
  /// charge or release the difference to `new_bytes` on the store's node.
  void sync_overhead_accounting(std::uint64_t new_bytes);

 private:
  hybridmem::HybridMemory& memory_;
  StoreConfig config_;
  StoreKind kind_;
  ServiceProfile profile_;
  ServiceNoise noise_;
  double** skeleton_tap_ = nullptr;
  std::uint64_t accounted_overhead_ = 0;  ///< charged to the node
  /// Fault absorbed by payload_access since the last finalize (sticky,
  /// worst-wins) — lets finalize stamp the OpResult without every store
  /// architecture threading fault state through its own paths.
  hybridmem::FaultKind pending_fault_ = hybridmem::FaultKind::kNone;
  bool pending_failed_ = false;
};

}  // namespace mnemo::kvstore
