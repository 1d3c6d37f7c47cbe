#pragma once

#include <vector>

#include "kvstore/cachet/assoc.hpp"
#include "kvstore/cachet/slab.hpp"
#include "kvstore/kvstore.hpp"
#include "util/flat_lru.hpp"

namespace mnemo::kvstore {

/// Memcached-like store: slab allocation with size classes, per-class LRU
/// eviction, and a power-of-two chained assoc table. Its multi-worker,
/// prefetch-friendly pipeline overlaps most of the payload transfer with
/// CPU work (profile bandwidth_overlap ≈ 0.9), which is why the paper
/// finds Memcached "barely influenced" by SlowMem (Fig 8b / Fig 9).
///
/// Capacity is consumed at slab-chunk granularity, so the node sees the
/// allocator's internal fragmentation, and when a placement fails the
/// store evicts from the item's own slab class LRU — memcached semantics.
class Cachet final : public KeyValueStore {
 public:
  Cachet(hybridmem::HybridMemory& memory, const StoreConfig& config);
  ~Cachet() override;

  using KeyValueStore::get;
  using KeyValueStore::put;
  OpResult get(std::uint64_t key, const KeyHints& hints) override;
  OpResult put(std::uint64_t key, std::uint64_t value_size,
               const KeyHints& hints) override;
  OpResult erase(std::uint64_t key) override;

  void reserve_keys(std::size_t keys) override;

  [[nodiscard]] std::size_t record_count() const override {
    return assoc_.size();
  }
  [[nodiscard]] std::uint64_t overhead_bytes() const override;

  [[nodiscard]] const cachet::SlabAllocator& slabs() const noexcept {
    return slabs_;
  }

 private:
  void lru_touch(cachet::Item& item);
  void drop_item(std::uint64_t key);
  /// Evict the LRU item of `cls`; returns false if the class is empty.
  bool evict_one(std::size_t cls);

  cachet::AssocTable assoc_;
  cachet::SlabAllocator slabs_;
  /// One LRU per slab class (+1 for the huge class); front = hottest.
  /// Array-backed intrusive lists keyed by the (dense) record key, so a
  /// touch is pointer-free index surgery (DESIGN.md §8).
  std::vector<util::FlatLru<util::NoPayload>> lru_;
};

}  // namespace mnemo::kvstore
