#pragma once

#include <cstdint>
#include <vector>

#include "kvstore/record.hpp"
#include "util/rng.hpp"

namespace mnemo::kvstore::cachet {

/// One cached item: payload plus the slab class its chunk came from.
struct Item {
  std::uint64_t key = 0;
  Record value;
  std::size_t slab_class = 0;
};

/// Memcached's `assoc` hash table: power-of-two buckets with chaining,
/// doubled when the load factor passes 1.5. Lookups report chain probes
/// for memory-latency accounting.
///
/// Like vermilion::Dict, storage is flat (DESIGN.md §8): items live in a
/// contiguous slot pool chained by int32 indices with a free list, and a
/// bucket is the index of its chain head. Chain order and probe counts
/// match the forward_list version exactly.
class AssocTable {
 public:
  static constexpr std::size_t kInitialBuckets = 16;
  static constexpr double kMaxLoad = 1.5;

  AssocTable();

  struct FindResult {
    Item* item = nullptr;
    std::uint32_t probes = 0;
  };
  /// Defined inline: every Cachet GET and PUT starts here (DESIGN.md §8).
  /// The hash-taking overload lets campaign replay pass the precomputed
  /// util::mix64(key) (DESIGN.md §12); it MUST equal mix64(key), so probe
  /// sequences are exactly those of the hashing overload.
  FindResult find(std::uint64_t key) { return find(key, util::mix64(key)); }
  FindResult find(std::uint64_t key, std::uint64_t hash) {
    FindResult result;
    for (std::int32_t n = buckets_[hash & (buckets_.size() - 1)];
         n != kNil; n = pool_[static_cast<std::size_t>(n)].next) {
      ++result.probes;
      Node& node = pool_[static_cast<std::size_t>(n)];
      if (node.item.key == key) {
        result.item = &node.item;
        return result;
      }
    }
    if (result.probes == 0) result.probes = 1;
    return result;
  }

  /// Insert a new item (key must not already exist — Cachet checks first).
  /// Returns probes walked and a stable-until-next-mutation pointer. The
  /// hash-taking overload obeys the same contract as find(key, hash).
  Item* insert(Item item, std::uint32_t* probes) {
    const std::uint64_t hash = util::mix64(item.key);
    return insert(std::move(item), probes, hash);
  }
  Item* insert(Item item, std::uint32_t* probes, std::uint64_t hash);

  /// Pre-size the slot pool for `n` items. The bucket array is NOT
  /// pre-sized: its doubling schedule is part of the modelled behaviour
  /// and overhead accounting.
  void reserve(std::size_t n) { pool_.reserve(n); }

  struct EraseResult {
    bool erased = false;
    std::uint32_t probes = 0;
    Item item;  ///< the removed item (for slab cleanup), valid if erased
  };
  EraseResult erase(std::uint64_t key);

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::uint64_t overhead_bytes() const noexcept;

  template <typename F>
  void for_each(F&& fn) const {
    for (const std::int32_t head : buckets_) {
      for (std::int32_t n = head; n != kNil;
           n = pool_[static_cast<std::size_t>(n)].next) {
        fn(pool_[static_cast<std::size_t>(n)].item);
      }
    }
  }

 private:
  static constexpr std::int32_t kNil = -1;

  struct Node {
    Item item;
    std::int32_t next = kNil;
  };

  [[nodiscard]] std::int32_t alloc_node(Item&& item);
  void maybe_expand();

  std::vector<Node> pool_;
  std::int32_t free_ = kNil;  ///< recycled slots, threaded via next
  std::vector<std::int32_t> buckets_;  ///< chain heads, kNil when empty
  std::size_t used_ = 0;
};

}  // namespace mnemo::kvstore::cachet
