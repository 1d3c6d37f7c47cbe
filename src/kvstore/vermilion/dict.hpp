#pragma once

#include <cstdint>
#include <vector>

#include "kvstore/record.hpp"
#include "util/rng.hpp"

namespace mnemo::kvstore::vermilion {

/// Redis-style chained hash table with *incremental rehash*: when the load
/// factor crosses 1.0 a second table of twice the size is created and a few
/// buckets migrate per operation, so no single request pays the full rehash
/// cost — the behaviour that keeps Redis's service times flat.
///
/// find/insert/erase report how many chain links they walked so the store
/// can charge memory latency per dependent probe.
///
/// Storage is flat (DESIGN.md §8): entries live in one contiguous slot
/// pool chained by int32 indices, and a bucket is just the index of its
/// chain head. Chain order, probe counts, and rehash migration order are
/// exactly those of the forward_list version this replaces — only the
/// memory layout changed (no per-entry heap node, erased slots recycled
/// through a free list).
class Dict {
 public:
  static constexpr std::size_t kInitialBuckets = 16;
  static constexpr std::size_t kRehashBucketsPerOp = 2;

  Dict();

  struct Entry {
    std::uint64_t key;
    Record value;
  };

  /// Result of a lookup: pointer into the table (invalidated by the next
  /// mutation) plus the number of chain links traversed across both tables.
  struct FindResult {
    Entry* entry = nullptr;
    std::uint32_t probes = 0;
  };

  /// Defined inline in the steady state — every Vermilion GET starts here
  /// (DESIGN.md §8). Mid-rehash lookups (which must also migrate buckets
  /// and probe both tables) take the out-of-line tail.
  ///
  /// The hash-taking overload lets campaign replay pass the precomputed
  /// util::mix64(key) (DESIGN.md §12); it MUST equal mix64(key), so probe
  /// sequences are exactly those of the hashing overload.
  FindResult find(std::uint64_t key) { return find(key, util::mix64(key)); }
  FindResult find(std::uint64_t key, std::uint64_t hash) {
    if (rehashing()) [[unlikely]] { return find_rehashing(key, hash); }
    FindResult result;
    Table& table = tables_[0];
    for (std::int32_t n = table[hash & (table.size() - 1)]; n != kNil;
         n = pool_[static_cast<std::size_t>(n)].next) {
      ++result.probes;
      Node& node = pool_[static_cast<std::size_t>(n)];
      if (node.entry.key == key) {
        result.entry = &node.entry;
        return result;
      }
    }
    if (result.probes == 0) result.probes = 1;  // empty-bucket inspection
    return result;
  }

  /// Insert a new key or overwrite an existing one. Returns the probe
  /// count and whether the key already existed.
  struct UpsertResult {
    bool existed = false;
    std::uint32_t probes = 0;
    Entry* entry = nullptr;
  };
  UpsertResult upsert(std::uint64_t key, Record value) {
    return upsert(key, std::move(value), util::mix64(key));
  }
  UpsertResult upsert(std::uint64_t key, Record value, std::uint64_t hash);

  /// Pre-size the slot pool for `n` entries. The bucket tables are NOT
  /// pre-sized: their growth schedule (incremental rehash) is part of the
  /// modelled behaviour and overhead accounting.
  void reserve(std::size_t n) { pool_.reserve(n); }

  /// Remove a key; returns probes and whether it was present.
  struct EraseResult {
    bool erased = false;
    std::uint32_t probes = 0;
  };
  EraseResult erase(std::uint64_t key);

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] bool rehashing() const noexcept { return rehash_idx_ >= 0; }
  [[nodiscard]] std::size_t bucket_count() const noexcept;

  /// Bytes of table/entry bookkeeping (bucket arrays + per-entry headers),
  /// excluding payload bytes.
  [[nodiscard]] std::uint64_t overhead_bytes() const noexcept;

  /// Visit every entry (table 0 then table 1, buckets in order, chains
  /// front to back — the order RNG-sampling callers rely on).
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& table : tables_) {
      for (const std::int32_t head : table) {
        for (std::int32_t n = head; n != kNil; n = pool_[n].next) {
          fn(pool_[static_cast<std::size_t>(n)].entry);
        }
      }
    }
  }

 private:
  static constexpr std::int32_t kNil = -1;

  struct Node {
    Entry entry;
    std::int32_t next = kNil;
  };

  /// Bucket = index of its chain head in the pool (kNil when empty).
  using Table = std::vector<std::int32_t>;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t key,
                                             std::size_t buckets) {
    return util::mix64(key) & (buckets - 1);
  }
  FindResult find_rehashing(std::uint64_t key, std::uint64_t hash);
  [[nodiscard]] std::int32_t alloc_node(std::uint64_t key, Record&& value);
  void maybe_start_rehash();
  void rehash_step();

  std::vector<Node> pool_;
  std::int32_t free_ = kNil;  ///< recycled slots, threaded via next
  Table tables_[2];
  std::ptrdiff_t rehash_idx_ = -1;  ///< next bucket of tables_[0] to migrate
  std::size_t used_ = 0;
};

}  // namespace mnemo::kvstore::vermilion
