#pragma once

#include "kvstore/cachet/assoc.hpp"
#include "kvstore/cachet/slab.hpp"
#include "kvstore/kvstore.hpp"

namespace mnemo::kvstore {

/// Memcached-like store: slab allocation with size classes and a
/// power-of-two chained assoc table. Its multi-worker, prefetch-friendly
/// pipeline overlaps most of the payload transfer with CPU work (profile
/// bandwidth_overlap ≈ 0.9), which is why the paper finds Memcached
/// "barely influenced" by SlowMem (Fig 8b / Fig 9).
///
/// Capacity is consumed at slab-chunk granularity, so the node sees the
/// allocator's internal fragmentation. Nothing is evicted: every
/// deployment Mnemo measures holds its whole dataset, so a put the node
/// cannot fit fails and leaves the store as it was.
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

  void reserve_keys(std::size_t keys) override { assoc_.reserve(keys); }

  [[nodiscard]] std::size_t record_count() const override {
    return assoc_.size();
  }
  [[nodiscard]] std::uint64_t overhead_bytes() const override;

  [[nodiscard]] const cachet::SlabAllocator& slabs() const noexcept {
    return slabs_;
  }

 private:
  cachet::AssocTable assoc_;
  cachet::SlabAllocator slabs_;
};

}  // namespace mnemo::kvstore
