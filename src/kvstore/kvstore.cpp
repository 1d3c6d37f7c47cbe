#include "kvstore/kvstore.hpp"

namespace mnemo::kvstore {

KeyValueStore::KeyValueStore(hybridmem::HybridMemory& memory,
                             const StoreConfig& config, StoreKind kind)
    : memory_(memory),
      config_(config),
      kind_(kind),
      profile_(default_profile(kind)),
      noise_(ServiceNoise::for_instance(config, kind)) {}

KeyValueStore::~KeyValueStore() {
  // Release the charged overhead; record objects are owned by the
  // concrete store and removed in its destructor.
  memory_.node(config_.node).release(accounted_overhead_);
}

void KeyValueStore::sync_overhead_accounting(std::uint64_t new_bytes) {
  hybridmem::MemoryNode& node = memory_.node(config_.node);
  if (new_bytes > accounted_overhead_) {
    // Index overhead is bookkeeping, not a placement decision: it must not
    // fail the experiment, so a full node is tolerated (tracked best
    // effort).
    if (!node.allocate(new_bytes - accounted_overhead_)) return;
  } else {
    node.release(accounted_overhead_ - new_bytes);
  }
  accounted_overhead_ = new_bytes;
}

}  // namespace mnemo::kvstore
