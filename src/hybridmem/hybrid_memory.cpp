#include "hybridmem/hybrid_memory.hpp"

#include "util/assert.hpp"

namespace mnemo::hybridmem {

HybridMemory::HybridMemory(const EmulationProfile& profile)
    : profile_(profile),
      fast_(profile.fast),
      slow_(profile.slow),
      llc_(profile.llc_bytes, profile.llc_latency_ns,
           profile.llc_bandwidth_gbps, profile.llc_bypass_fraction) {}

std::uint64_t HybridMemory::total_used_bytes() const noexcept {
  return fast_.used_bytes() + slow_.used_bytes();
}

void HybridMemory::reserve_objects(std::size_t max_objects) {
  if (max_objects > objects_.size()) objects_.resize(max_objects);
  llc_.reserve(max_objects);
}

bool HybridMemory::place(std::uint64_t object_id, std::uint64_t bytes,
                         NodeId node_id) {
  MNEMO_EXPECTS(find_object(object_id) == nullptr);
  if (!node(node_id).allocate(bytes)) return false;
  if (object_id >= objects_.size()) {
    std::size_t grown = objects_.empty() ? 64 : objects_.size() * 2;
    while (grown <= object_id) grown *= 2;
    objects_.resize(grown);
  }
  objects_[static_cast<std::size_t>(object_id)] =
      ObjectInfo{bytes, node_id, true};
  return true;
}

void HybridMemory::remove(std::uint64_t object_id) {
  const ObjectInfo* info = find_object(object_id);
  if (info == nullptr) return;
  node(info->node).release(info->bytes);
  llc_.invalidate(object_id);
  objects_[static_cast<std::size_t>(object_id)] = ObjectInfo{};
}

std::optional<NodeId> HybridMemory::locate(std::uint64_t object_id) const {
  const ObjectInfo* info = find_object(object_id);
  if (info == nullptr) return std::nullopt;
  return info->node;
}

std::optional<std::uint64_t> HybridMemory::object_size(
    std::uint64_t object_id) const {
  const ObjectInfo* info = find_object(object_id);
  if (info == nullptr) return std::nullopt;
  return info->bytes;
}

void HybridMemory::arm_faults(const faultinject::FaultPlan& plan,
                              std::uint64_t stream) {
  if (plan.empty()) return;
  MNEMO_EXPECTS(injector_ == nullptr);
  injector_ = std::make_unique<faultinject::FaultInjector>(plan, stream);
}

double HybridMemory::raw_access_ns(NodeId node_id, const AccessTraits& traits,
                                   MemOp op) const {
  return node(node_id).access_ns(traits, op);
}

}  // namespace mnemo::hybridmem
