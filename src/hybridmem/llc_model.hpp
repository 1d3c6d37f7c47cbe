#pragma once

#include <cstdint>

#include "util/flat_lru.hpp"

namespace mnemo::hybridmem {

/// Last-level-cache model: an LRU over whole resident objects with a byte
/// budget (the testbed's 12 MB shared LLC). Object-granular rather than
/// line-granular — for Mnemo's record sizes (1 KB–100 KB) a record is
/// either streamed through the cache and reused soon (hit) or evicted by
/// the ~1 GB working set before reuse (miss), which whole-object LRU
/// captures at a fraction of the bookkeeping cost of per-line tags.
///
/// Objects larger than `bypass_fraction` of capacity never cache (streaming
/// accesses would self-evict anyway).
///
/// The recency structure is an array-backed intrusive LRU over dense object
/// IDs (util::FlatLru, DESIGN.md §8): membership is a vector index, a touch
/// rewrites four slot indices, and a miss-install reuses a pooled slot —
/// no per-insertion heap allocation on the replay hot path. reserve()
/// pre-sizes both tables so steady-state replay allocates nothing.
class LlcModel {
 public:
  /// Slot-pool sizing floor: no cacheable object is smaller than a cache
  /// line, so capacity / kMinEntryBytes bounds how many entries can ever
  /// be resident at once.
  static constexpr std::uint64_t kMinEntryBytes = 64;

  LlcModel(std::uint64_t capacity_bytes, double hit_latency_ns,
           double hit_bandwidth_gbps, double bypass_fraction = 0.25);

  /// Record an access to object `id` of `bytes` size. Returns true on hit.
  /// On miss the object is installed (evicting LRU victims) unless it
  /// bypasses. A hit whose object grew in place (record update) re-runs
  /// eviction after the size update, so `used_` never exceeds capacity;
  /// if the grown object alone no longer fits, it is dropped from the
  /// cache (the hit still counts — the data was served before the growth).
  /// Inline (hot path); the eviction loops stay out of line.
  bool access(std::uint64_t id, std::uint64_t bytes) {
    if (std::uint64_t* cached = lru_.touch(id)) {
      // Size may have changed (record update); keep accounting honest.
      used_ -= *cached;
      used_ += bytes;
      *cached = bytes;
      ++hits_;
      // A grow-in-place can push used_ past capacity: make room now rather
      // than leaving the budget silently overcommitted.
      if (used_ > capacity_) evict_grown(id);
      return true;
    }
    ++misses_;
    if (bytes > bypass_threshold_) return false;
    if (used_ + bytes > capacity_) evict_to(bytes);
    lru_.push_front(id, bytes);
    used_ += bytes;
    return false;
  }

  /// Drop an object (e.g. deleted or resized record). Inline: every record
  /// update resizes its object, which lands here (DESIGN.md §8).
  void invalidate(std::uint64_t id) {
    const std::uint64_t* bytes = lru_.find(id);
    if (bytes == nullptr) return;
    used_ -= *bytes;
    (void)lru_.erase(id);
  }

  /// Forget everything and restart the hit statistics (a measurement
  /// boundary, e.g. between the load phase and the measured run).
  void clear();

  /// Pre-size the ID index for objects [0, max_objects) and the entry pool
  /// for as many of them as could ever be resident, so replay performs no
  /// steady-state allocations.
  void reserve(std::size_t max_objects);

  /// ns to serve `bytes` from the LLC on a hit.
  [[nodiscard]] double hit_ns(std::uint64_t bytes) const {
    return hit_latency_ns_ + static_cast<double>(bytes) / hit_bandwidth_gbps_;
  }

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Entries dropped to make room (capacity pressure only; invalidate()
  /// and clear() do not count).
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_;
  }
  [[nodiscard]] double hit_rate() const noexcept;

  /// Whether `id` is currently cached (test/observability hook).
  [[nodiscard]] bool resident(std::uint64_t id) const {
    return lru_.find(id) != nullptr;
  }

 private:
  void evict_to(std::uint64_t need);
  void evict_grown(std::uint64_t grown_id);

  std::uint64_t capacity_;
  double hit_latency_ns_;
  double hit_bandwidth_gbps_;
  std::uint64_t bypass_threshold_;
  std::uint64_t used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  util::FlatLru<std::uint64_t> lru_;  ///< payload = resident bytes
};

}  // namespace mnemo::hybridmem
