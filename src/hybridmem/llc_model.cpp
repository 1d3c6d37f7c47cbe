#include "hybridmem/llc_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mnemo::hybridmem {

LlcModel::LlcModel(std::uint64_t capacity_bytes, double hit_latency_ns,
                   double hit_bandwidth_gbps, double bypass_fraction)
    : capacity_(capacity_bytes),
      hit_latency_ns_(hit_latency_ns),
      hit_bandwidth_gbps_(hit_bandwidth_gbps),
      bypass_threshold_(static_cast<std::uint64_t>(
          static_cast<double>(capacity_bytes) * bypass_fraction)) {
  MNEMO_EXPECTS(capacity_bytes > 0);
  MNEMO_EXPECTS(hit_latency_ns > 0.0);
  MNEMO_EXPECTS(hit_bandwidth_gbps > 0.0);
  MNEMO_EXPECTS(bypass_fraction > 0.0 && bypass_fraction <= 1.0);
}

double LlcModel::hit_rate() const noexcept {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

void LlcModel::reserve(std::size_t max_objects) {
  const std::size_t resident_cap = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_objects, capacity_ / kMinEntryBytes + 1));
  lru_.reserve(max_objects, resident_cap);
}

void LlcModel::evict_to(std::uint64_t need) {
  MNEMO_EXPECTS(need <= capacity_);
  while (used_ + need > capacity_ && !lru_.empty()) {
    used_ -= lru_.back();
    lru_.pop_back();
    ++evictions_;
  }
}

void LlcModel::evict_grown(std::uint64_t grown_id) {
  // Victims come from the LRU end; the grown entry itself sits at the MRU
  // end and is only dropped if, alone, it still exceeds capacity.
  while (used_ > capacity_ && lru_.size() > 1) {
    used_ -= lru_.back();
    lru_.pop_back();
    ++evictions_;
  }
  if (used_ > capacity_) {
    const std::uint64_t* bytes = lru_.find(grown_id);
    MNEMO_ASSERT(bytes != nullptr);
    used_ -= *bytes;
    (void)lru_.erase(grown_id);
    ++evictions_;
  }
}

void LlcModel::clear() {
  lru_.clear();
  used_ = 0;
  // Clearing marks a measurement boundary (e.g. after the load phase);
  // the hit statistics restart with the content.
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

}  // namespace mnemo::hybridmem
