#include "kvstore/kvstore.hpp"

#include <atomic>

namespace mnemo::kvstore {

namespace {

/// Object-ID namespace tags (top byte) so records, per-instance index
/// overhead and journals never collide inside one HybridMemory.
constexpr std::uint64_t kOverheadTag = 0x0100'0000'0000'0000ULL;

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

KeyValueStore::KeyValueStore(hybridmem::HybridMemory& memory,
                             const StoreConfig& config, StoreKind kind)
    : memory_(memory),
      config_(config),
      kind_(kind),
      profile_(config.profile_override ? *config.profile_override
                                       : default_profile(kind)),
      noise_(ServiceNoise::for_instance(config, kind)),
      overhead_object_id_(kOverheadTag | next_instance_id()) {}

KeyValueStore::~KeyValueStore() {
  // Release the overhead accounting object; record objects are owned by
  // the concrete store and removed in its destructor.
  if (accounted_overhead_ > 0) memory_.remove(overhead_object_id_);
}

void KeyValueStore::sync_overhead_accounting(std::uint64_t new_bytes) {
  if (new_bytes == accounted_overhead_) return;
  if (accounted_overhead_ == 0) {
    // Index overhead is bookkeeping, not a placement decision: it must not
    // fail the experiment, so a full node is tolerated (tracked best
    // effort).
    if (!memory_.place(overhead_object_id_, new_bytes, config_.node)) {
      return;
    }
  } else if (!memory_.resize(overhead_object_id_, new_bytes)) {
    return;
  }
  accounted_overhead_ = new_bytes;
}

}  // namespace mnemo::kvstore
