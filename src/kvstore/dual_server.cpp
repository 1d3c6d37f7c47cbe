#include "kvstore/dual_server.hpp"

#include "faultinject/fault_injector.hpp"
#include "util/assert.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::kvstore {

DualServer::DualServer(hybridmem::HybridMemory& memory, StoreKind kind,
                       const StoreConfig& base_config)
    : kind_(kind) {
  StoreConfig fast_cfg = base_config;
  fast_cfg.node = hybridmem::NodeId::kFast;
  StoreConfig slow_cfg = base_config;
  slow_cfg.node = hybridmem::NodeId::kSlow;
  // Distinct jitter streams per instance, like two independent processes.
  slow_cfg.seed = base_config.seed ^ kSlowSeedMix;
  fast_ = make_store(kind, memory, fast_cfg);
  slow_ = make_store(kind, memory, slow_cfg);
}

util::Status DualServer::populate(const workload::CompiledTrace& compiled,
                                  const hybridmem::Placement& placement) {
  const workload::Trace& trace = compiled.trace();
  MNEMO_EXPECTS(placement.key_count() == trace.key_count());
  placement_ = placement;
  key_sizes_ = compiled.key_sizes();
  // Pre-size the platform's flat tables for the dense key range so the
  // replay loop runs allocation-free (DESIGN.md §8).
  fast_->memory().reserve_objects(
      static_cast<std::size_t>(placement.key_count()));
  // Allocation hint only: slot pools sized for the dense key range (a key
  // lives on exactly one server, so this over-reserves each pool);
  // observable bucket/rehash growth schedules are never pre-sized.
  fast_->reserve_keys(static_cast<std::size_t>(placement.key_count()));
  slow_->reserve_keys(static_cast<std::size_t>(placement.key_count()));
  const std::span<const std::uint64_t> hashes = compiled.key_hashes();
  // Only keys that exist before the run are loaded; keys beyond
  // initial_key_count() arrive via kInsert requests during execution.
  for (std::uint64_t key = 0; key < trace.initial_key_count(); ++key) {
    KeyValueStore& server = route(key);
    if (!server.put(key, key_sizes_[key], {hashes[key]}).ok) {
      return capacity_error("populate", server, key);
    }
  }
  return {};
}

util::Error DualServer::capacity_error(std::string_view stage,
                                       KeyValueStore& server,
                                       std::uint64_t key) const {
  util::Error e;
  e.code = util::ErrorCode::kCapacityExhausted;
  e.message = std::string(stage) + ": " +
              std::string(hybridmem::to_string(server.node())) +
              " cannot fit key";
  e.key = key;
  e.requested_bytes = key_sizes_[key];
  e.available_bytes = server.memory().node(server.node()).free_bytes();
  return e;
}

util::Result<OpResult> DualServer::recover_faulted_read(std::uint64_t key,
                                                       OpResult r) {
  if (r.fault == hybridmem::FaultKind::kPoisoned) {
    // The SlowMem copy is uncorrectable: remap the key to FastMem (the
    // move recovers the record at the plan's remap cost) and re-serve the
    // request from there. Everything is charged to this request.
    const util::Result<double> moved =
        move_key(key, hybridmem::NodeId::kFast);
    faultinject::FaultInjector* inj =
        fast_->memory().fault_injector();
    if (!moved.ok()) {
      // Destination full: serve in place, paying the recovery cost on
      // every poisoned read instead of once.
      r.service_ns += inj != nullptr ? inj->plan().poison_remap_cost_ns : 0.0;
      return r;
    }
    OpResult again = fast_->get(key);
    again.service_ns += r.service_ns + moved.value();
    again.fault = hybridmem::FaultKind::kPoisoned;
    return again;
  }
  if (!r.ok && r.fault == hybridmem::FaultKind::kTransient) {
    const faultinject::FaultInjector* inj =
        fast_->memory().fault_injector();
    util::Error e;
    e.code = util::ErrorCode::kFaultInjected;
    e.message = "read failed: transient SlowMem fault retries exhausted";
    e.key = key;
    e.attempts = inj != nullptr ? inj->plan().transient_max_retries : 0;
    return e;
  }
  return r;
}

util::Result<double> DualServer::move_key(std::uint64_t key,
                                          hybridmem::NodeId to) {
  MNEMO_EXPECTS(key < key_sizes_.size());
  if (placement_.node_of(key) == to) return 0.0;
  KeyValueStore& src = route(key);
  KeyValueStore& dst =
      to == hybridmem::NodeId::kFast ? *fast_ : *slow_;
  double cost = 0.0;

  // With faults armed, migrating a record means actually reading it off
  // the source medium first. Transient faults are retried with exponential
  // backoff in simulated time; a poisoned source is recovered once at the
  // remap cost. On a healthy platform this read is skipped entirely so
  // fault-free timing is unchanged.
  faultinject::FaultInjector* inj = src.memory().fault_injector();
  if (inj != nullptr && src.node() == hybridmem::NodeId::kSlow) {
    double backoff_ns = inj->plan().transient_retry_cost_ns;
    int attempts = 0;
    for (;;) {
      const OpResult peek = src.get(key);
      cost += peek.service_ns;
      if (peek.fault == hybridmem::FaultKind::kPoisoned) {
        cost += inj->plan().poison_remap_cost_ns;
        break;
      }
      if (peek.ok) break;
      MNEMO_EXPECTS(peek.fault == hybridmem::FaultKind::kTransient &&
                    "move_key requires the key to be resident");
      ++attempts;
      if (attempts > inj->plan().transient_max_retries) {
        util::Error e;
        e.code = util::ErrorCode::kRetriesExhausted;
        e.message = "move_key: migration read kept faulting";
        e.key = key;
        e.attempts = attempts;
        return e;
      }
      cost += backoff_ns;
      backoff_ns *= 2.0;
    }
  }

  // The structural move itself (delete + re-insert + possible restore)
  // must not consume fault events: it models metadata operations, and a
  // fault mid-restore would corrupt the deployment invariant that every
  // key stays resident somewhere.
  faultinject::FaultPause pause(inj);
  const OpResult out = src.erase(key);
  MNEMO_EXPECTS(out.ok);
  const OpResult in = dst.put(key, key_sizes_[key]);
  if (!in.ok) {
    // Destination full: put the record back where it was.
    const OpResult restore = src.put(key, key_sizes_[key]);
    MNEMO_ASSERT(restore.ok);
    return capacity_error("move_key", dst, key);
  }
  placement_.set(key, to);
  return cost + out.service_ns + in.service_ns;
}

}  // namespace mnemo::kvstore
