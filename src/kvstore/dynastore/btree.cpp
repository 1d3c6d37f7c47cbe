#include "kvstore/dynastore/btree.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "util/assert.hpp"

namespace mnemo::kvstore::dynastore {

BPlusTree::BPlusTree() {
  auto leaf = std::make_unique<Leaf>();
  first_leaf_ = leaf.get();
  root_ = std::move(leaf);
}

BPlusTree::~BPlusTree() = default;

std::uint64_t BPlusTree::overhead_bytes() const noexcept {
  // Per node: header + kFanout key slots + kFanout pointers — a fixed-size
  // page model, like an on-heap B-tree with preallocated arrays.
  constexpr std::uint64_t kNodeBytes = 32 + kFanout * 8 + kFanout * 8;
  return nodes_ * kNodeBytes;
}

bool BPlusTree::insert_into(Node& node, std::uint64_t key, Record&& value,
                            UpsertResult* result, SplitResult* split) {
  ++result->depth;
  if (node.is_leaf) {
    auto& leaf = static_cast<Leaf&>(node);
    const std::size_t idx = lower_idx(leaf.keys, leaf.nkeys, key);
    if (idx < leaf.nkeys && leaf.keys[idx] == key) {
      leaf.values[idx] = std::move(value);
      result->existed = true;
      result->record = &leaf.values[idx];
      return false;
    }
    for (std::size_t i = leaf.nkeys; i > idx; --i) leaf.keys[i] = leaf.keys[i - 1];
    leaf.keys[idx] = key;
    ++leaf.nkeys;
    leaf.values.insert(leaf.values.begin() + static_cast<std::ptrdiff_t>(idx),
                       std::move(value));
    ++size_;
    if (leaf.nkeys < kFanout) return false;

    // Split the leaf in half; right sibling joins the leaf chain.
    auto right = std::make_unique<Leaf>();
    const std::size_t half = leaf.nkeys / 2;
    right->nkeys = leaf.nkeys - static_cast<std::uint32_t>(half);
    std::copy(leaf.keys + half, leaf.keys + leaf.nkeys, right->keys);
    right->values.assign(
        std::make_move_iterator(leaf.values.begin() +
                                static_cast<std::ptrdiff_t>(half)),
        std::make_move_iterator(leaf.values.end()));
    leaf.nkeys = static_cast<std::uint32_t>(half);
    leaf.values.resize(half);
    right->next = leaf.next;
    leaf.next = right.get();
    ++nodes_;
    split->separator = right->keys[0];
    split->right = std::move(right);
    return true;
  }

  auto& internal = static_cast<Internal&>(node);
  const std::size_t child_idx = upper_idx(internal.keys, internal.nkeys, key);
  SplitResult child_split;
  if (!insert_into(*internal.children[child_idx], key, std::move(value),
                   result, &child_split)) {
    return false;
  }
  // Insert the separator at child_idx and the new right child after the
  // one that split (children count is nkeys + 1 before the bump).
  for (std::size_t i = internal.nkeys; i > child_idx; --i) {
    internal.keys[i] = internal.keys[i - 1];
  }
  internal.keys[child_idx] = child_split.separator;
  for (std::size_t i = internal.nkeys + 1; i > child_idx + 1; --i) {
    internal.children[i] = std::move(internal.children[i - 1]);
  }
  internal.children[child_idx + 1] = std::move(child_split.right);
  ++internal.nkeys;
  if (internal.nkeys + 1 <= kFanout) return false;

  // Split the internal node; the middle key moves up.
  auto right = std::make_unique<Internal>();
  const std::size_t mid = internal.nkeys / 2;
  split->separator = internal.keys[mid];
  right->nkeys = internal.nkeys - static_cast<std::uint32_t>(mid) - 1;
  std::copy(internal.keys + mid + 1, internal.keys + internal.nkeys,
            right->keys);
  for (std::size_t i = 0; i <= right->nkeys; ++i) {
    right->children[i] = std::move(internal.children[mid + 1 + i]);
  }
  internal.nkeys = static_cast<std::uint32_t>(mid);
  ++nodes_;
  split->right = std::move(right);
  return true;
}

BPlusTree::UpsertResult BPlusTree::upsert(std::uint64_t key, Record value) {
  UpsertResult result;
  SplitResult split;
  if (insert_into(*root_, key, std::move(value), &result, &split)) {
    auto new_root = std::make_unique<Internal>();
    new_root->nkeys = 1;
    new_root->keys[0] = split.separator;
    new_root->children[0] = std::move(root_);
    new_root->children[1] = std::move(split.right);
    root_ = std::move(new_root);
    ++nodes_;
    ++height_;
  }
  return result;
}

BPlusTree::EraseResult BPlusTree::erase(std::uint64_t key) {
  EraseResult result;
  Leaf* leaf = descend(key, &result.depth);
  const std::size_t idx = lower_idx(leaf->keys, leaf->nkeys, key);
  if (idx >= leaf->nkeys || leaf->keys[idx] != key) return result;
  for (std::size_t i = idx; i + 1 < leaf->nkeys; ++i) {
    leaf->keys[i] = leaf->keys[i + 1];
  }
  --leaf->nkeys;
  leaf->values.erase(leaf->values.begin() + static_cast<std::ptrdiff_t>(idx));
  --size_;
  result.erased = true;
  return result;
}

void BPlusTree::check_node(const Node& node, std::uint64_t lo,
                           std::uint64_t hi, std::uint32_t depth,
                           std::uint32_t expected_leaf_depth) const {
  MNEMO_ASSERT(std::is_sorted(node.keys, node.keys + node.nkeys));
  if (node.is_leaf) {
    const auto& leaf = static_cast<const Leaf&>(node);
    MNEMO_ASSERT(depth == expected_leaf_depth);
    MNEMO_ASSERT(leaf.nkeys == leaf.values.size());
    for (std::size_t i = 0; i < leaf.nkeys; ++i) {
      MNEMO_ASSERT(leaf.keys[i] >= lo && leaf.keys[i] < hi);
    }
    return;
  }
  const auto& internal = static_cast<const Internal&>(node);
  MNEMO_ASSERT(internal.nkeys + 1 <= kFanout);
  for (std::size_t i = 0; i <= internal.nkeys; ++i) {
    MNEMO_ASSERT(internal.children[i] != nullptr);
    const std::uint64_t child_lo = i == 0 ? lo : internal.keys[i - 1];
    const std::uint64_t child_hi =
        i == internal.nkeys ? hi : internal.keys[i];
    check_node(*internal.children[i], child_lo, child_hi, depth + 1,
               expected_leaf_depth);
  }
  // Slots past the live range must not own nodes (moved-from after split).
  for (std::size_t i = internal.nkeys + 1; i <= kFanout; ++i) {
    MNEMO_ASSERT(internal.children[i] == nullptr);
  }
}

void BPlusTree::check_invariants() const {
  check_node(*root_, 0, std::numeric_limits<std::uint64_t>::max(), 1,
             height_);
  // Leaf chain covers exactly size_ records in sorted order.
  std::size_t seen = 0;
  std::uint64_t prev = 0;
  bool first = true;
  const Leaf* leaf = first_leaf_;
  while (leaf != nullptr) {
    for (std::size_t i = 0; i < leaf->nkeys; ++i) {
      const std::uint64_t k = leaf->keys[i];
      MNEMO_ASSERT(first || k > prev);
      prev = k;
      first = false;
      ++seen;
    }
    leaf = leaf->next;
  }
  MNEMO_ASSERT(seen == size_);
}

}  // namespace mnemo::kvstore::dynastore
