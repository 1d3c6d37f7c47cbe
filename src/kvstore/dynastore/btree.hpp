#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kvstore/record.hpp"

namespace mnemo::kvstore::dynastore {

/// B+-tree index mapping 64-bit keys to records. Fan-out 64; values live
/// only in leaves; leaves are chained for in-order visits. Every operation
/// reports the descent depth, which the store converts into dependent
/// memory touches (the pointer-chasing that makes the DynamoDB-like engine
/// the most SlowMem-sensitive architecture).
///
/// Keys and child pointers live inline in the node (fixed-capacity arrays,
/// not separately allocated vectors), so a descent's binary search touches
/// only the node's own cache lines — one dependent load per level instead
/// of three (DESIGN.md §8). Splits, ordering, and reported depths are
/// identical to the vector-backed layout this replaces.
///
/// Deletion is tombstone-free but lazy: keys are removed from their leaf
/// without rebalancing (underfull leaves persist). Real LSM/B-tree engines
/// defer this work to compaction; Mnemo's workloads never shrink the key
/// space, so the simplification is behaviour-neutral.
class BPlusTree {
 public:
  static constexpr std::size_t kFanout = 64;

  BPlusTree();
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  struct FindResult {
    Record* record = nullptr;
    std::uint32_t depth = 0;  ///< nodes touched root -> leaf
  };
  /// Defined inline: every DynaStore GET descends here (DESIGN.md §8).
  FindResult find(std::uint64_t key) {
    FindResult result;
    Leaf* leaf = descend(key, &result.depth);
    const std::size_t idx = lower_idx(leaf->keys, leaf->nkeys, key);
    if (idx < leaf->nkeys && leaf->keys[idx] == key) {
      result.record = &leaf->values[idx];
    }
    return result;
  }

  struct UpsertResult {
    bool existed = false;
    std::uint32_t depth = 0;
    /// The overwritten record when `existed` (invalidated by the next
    /// mutation); null for a fresh insert.
    Record* record = nullptr;
  };
  UpsertResult upsert(std::uint64_t key, Record value);

  struct EraseResult {
    bool erased = false;
    std::uint32_t depth = 0;
  };
  EraseResult erase(std::uint64_t key);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }

  /// Index bookkeeping bytes (nodes, key slots, child pointers), excluding
  /// record payloads.
  [[nodiscard]] std::uint64_t overhead_bytes() const noexcept;

  /// In-order visit of all (key, record) pairs.
  template <typename F>
  void for_each(F&& fn) const {
    const Leaf* leaf = first_leaf_;
    while (leaf != nullptr) {
      for (std::size_t i = 0; i < leaf->nkeys; ++i) {
        fn(leaf->keys[i], leaf->values[i]);
      }
      leaf = leaf->next;
    }
  }

  /// Verify B+-tree invariants (ordering, fan-out bounds, leaf chain);
  /// aborts on violation. Exposed for property tests.
  void check_invariants() const;

 private:
  struct Node;
  struct Internal;
  struct Leaf;

  struct Node {
    bool is_leaf;
    /// Keys in use: keys[0, nkeys) sorted. Leaves hold up to kFanout keys
    /// (split at kFanout); internals up to kFanout - 1 in steady state
    /// (kFanout transiently, just before their split).
    std::uint32_t nkeys = 0;
    std::uint64_t keys[kFanout];
    explicit Node(bool leaf) : is_leaf(leaf) {}
    virtual ~Node() = default;
  };

  struct Internal final : Node {
    Internal() : Node(false) {}
    // children[0, nkeys]; subtree i holds keys < keys[i]. One spare slot
    // for the transient pre-split state (kFanout + 1 children).
    std::unique_ptr<Node> children[kFanout + 1];
  };

  struct Leaf final : Node {
    Leaf() : Node(true) {}
    std::vector<Record> values;  ///< values[i] belongs to keys[i]
    Leaf* next = nullptr;
  };

  struct SplitResult {
    std::uint64_t separator = 0;
    std::unique_ptr<Node> right;
  };

  /// Key searches returning the std::lower_bound / std::upper_bound index.
  /// The search strategy is unobservable (reported depth counts nodes, not
  /// comparisons), so it is chosen for cache behaviour: a branchless linear
  /// count touches the key array's cache lines in order (hardware-
  /// prefetchable, auto-vectorizable), where a binary search costs ~3
  /// dependent line misses on a cold 512-byte array. On random descents
  /// most nodes ARE cold, so the scan wins at every level (DESIGN.md §8).
  [[nodiscard]] static std::size_t lower_idx(const std::uint64_t* a,
                                             std::size_t n,
                                             std::uint64_t key) {
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n; ++i) idx += a[i] < key ? 1 : 0;
    return idx;
  }
  [[nodiscard]] static std::size_t upper_idx(const std::uint64_t* a,
                                             std::size_t n,
                                             std::uint64_t key) {
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n; ++i) idx += a[i] <= key ? 1 : 0;
    return idx;
  }

  Leaf* descend(std::uint64_t key, std::uint32_t* depth) const {
    Node* node = root_.get();
    std::uint32_t d = 1;
    while (!node->is_leaf) {
      auto& internal = static_cast<Internal&>(*node);
      node = internal.children[upper_idx(internal.keys, internal.nkeys, key)]
                 .get();
      ++d;
    }
    if (depth != nullptr) *depth = d;
    return static_cast<Leaf*>(node);
  }

  bool insert_into(Node& node, std::uint64_t key, Record&& value,
                   UpsertResult* result, SplitResult* split);
  void check_node(const Node& node, std::uint64_t lo, std::uint64_t hi,
                  std::uint32_t depth, std::uint32_t expected_leaf_depth) const;

  std::unique_ptr<Node> root_;
  Leaf* first_leaf_ = nullptr;
  std::size_t size_ = 0;
  std::size_t nodes_ = 1;
  std::uint32_t height_ = 1;
};

}  // namespace mnemo::kvstore::dynastore
