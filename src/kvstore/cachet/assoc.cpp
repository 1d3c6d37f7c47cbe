#include "kvstore/cachet/assoc.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mnemo::kvstore::cachet {

AssocTable::AssocTable() : buckets_(kInitialBuckets, kNil) {}

std::uint64_t AssocTable::overhead_bytes() const noexcept {
  // One pointer per bucket head — the modelled server's layout, unchanged
  // by the flat storage underneath.
  return buckets_.size() * sizeof(void*);
}

std::int32_t AssocTable::alloc_node(Item&& item) {
  std::int32_t n;
  if (free_ != kNil) {
    n = free_;
    free_ = pool_[static_cast<std::size_t>(n)].next;
  } else {
    MNEMO_ASSERT(pool_.size() < static_cast<std::size_t>(kNil));
    n = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& node = pool_[static_cast<std::size_t>(n)];
  node.item = std::move(item);
  node.next = kNil;
  return n;
}

void AssocTable::maybe_expand() {
  if (static_cast<double>(used_) <
      kMaxLoad * static_cast<double>(buckets_.size())) {
    return;
  }
  std::vector<std::int32_t> bigger(buckets_.size() * 2, kNil);
  for (std::int32_t& head : buckets_) {
    // Pop each chain head-first onto the new chain heads — the same
    // order the forward_list splice_after expansion produced.
    while (head != kNil) {
      const std::int32_t n = head;
      Node& node = pool_[static_cast<std::size_t>(n)];
      head = node.next;
      std::int32_t& dst = bigger[util::mix64(node.item.key) & (bigger.size() - 1)];
      node.next = dst;
      dst = n;
    }
  }
  buckets_ = std::move(bigger);
}

Item* AssocTable::insert(Item item, std::uint32_t* probes,
                         std::uint64_t hash) {
  maybe_expand();
  std::int32_t& bucket = buckets_[hash & (buckets_.size() - 1)];
  if (probes != nullptr) *probes = 1;
  const std::int32_t n = alloc_node(std::move(item));
  pool_[static_cast<std::size_t>(n)].next = bucket;
  bucket = n;
  ++used_;
  return &pool_[static_cast<std::size_t>(n)].item;
}

AssocTable::EraseResult AssocTable::erase(std::uint64_t key) {
  EraseResult result;
  std::int32_t* link = &buckets_[util::mix64(key) & (buckets_.size() - 1)];
  while (*link != kNil) {
    const std::int32_t n = *link;
    Node& node = pool_[static_cast<std::size_t>(n)];
    ++result.probes;
    if (node.item.key == key) {
      *link = node.next;
      result.item = std::move(node.item);
      node.item = Item{};  // release any payload promptly
      node.next = free_;
      free_ = n;
      --used_;
      result.erased = true;
      return result;
    }
    link = &node.next;
  }
  return result;
}

}  // namespace mnemo::kvstore::cachet
