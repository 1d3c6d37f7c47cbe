#include "hybridmem/hybrid_memory.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mnemo::hybridmem {

HybridMemory::HybridMemory(const EmulationProfile& profile,
                           std::pmr::memory_resource* memory)
    : profile_(profile),
      fast_(profile.fast),
      slow_(profile.slow),
      llc_(profile.llc_bytes, profile.llc_latency_ns,
           profile.llc_bandwidth_gbps, profile.llc_bypass_fraction, memory),
      dense_objects_(memory != nullptr ? memory
                                       : std::pmr::get_default_resource()) {}

std::uint64_t HybridMemory::total_used_bytes() const noexcept {
  return fast_.used_bytes() + slow_.used_bytes();
}

HybridMemory::ObjectInfo* HybridMemory::find_object_slow(
    std::uint64_t object_id) {
  if (object_id < util::kDenseIdCap) return nullptr;  // table not grown yet
  const auto it = overflow_objects_.find(object_id);
  return it == overflow_objects_.end() ? nullptr : &it->second;
}

HybridMemory::ObjectInfo& HybridMemory::insert_object(
    std::uint64_t object_id) {
  ++object_count_;
  if (object_id < util::kDenseIdCap) {
    if (object_id >= dense_objects_.size()) {
      std::size_t grown =
          dense_objects_.empty() ? 64 : dense_objects_.size() * 2;
      while (grown <= object_id) grown *= 2;
      grown = std::min<std::size_t>(
          grown, static_cast<std::size_t>(util::kDenseIdCap));
      dense_objects_.resize(grown);
    }
    ObjectInfo& info = dense_objects_[static_cast<std::size_t>(object_id)];
    info.present = true;
    return info;
  }
  ObjectInfo& info = overflow_objects_[object_id];
  info.present = true;
  return info;
}

void HybridMemory::erase_object(std::uint64_t object_id) {
  --object_count_;
  if (object_id < util::kDenseIdCap) {
    dense_objects_[static_cast<std::size_t>(object_id)] = ObjectInfo{};
    return;
  }
  overflow_objects_.erase(object_id);
}

void HybridMemory::reserve_objects(std::size_t max_objects) {
  const std::size_t dense = std::min<std::size_t>(
      max_objects, static_cast<std::size_t>(util::kDenseIdCap));
  if (dense > dense_objects_.size()) dense_objects_.resize(dense);
  llc_.reserve(max_objects);
}

bool HybridMemory::place(std::uint64_t object_id, std::uint64_t bytes,
                         NodeId node_id) {
  MNEMO_EXPECTS(find_object(object_id) == nullptr);
  if (!node(node_id).allocate(bytes)) return false;
  ObjectInfo& info = insert_object(object_id);
  info.bytes = bytes;
  info.node = node_id;
  return true;
}

void HybridMemory::remove(std::uint64_t object_id) {
  const ObjectInfo* info = find_object(object_id);
  if (info == nullptr) return;
  node(info->node).release(info->bytes);
  llc_.invalidate(object_id);
  erase_object(object_id);
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
