#include "kvstore/cachet/cachet.hpp"

#include "util/assert.hpp"

namespace mnemo::kvstore {

using cachet::Item;
using hybridmem::MemOp;

Cachet::Cachet(hybridmem::HybridMemory& memory, const StoreConfig& config)
    : KeyValueStore(memory, config, StoreKind::kCachet),
      assoc_(config.table_memory) {
  lru_.reserve(slabs_.class_count() + 1);
  for (std::size_t i = 0; i < slabs_.class_count() + 1; ++i) {
    lru_.emplace_back(config.table_memory);
  }
}

void Cachet::reserve_keys(std::size_t keys) {
  assoc_.reserve(keys);
  // Per-class residency is unknown up front; pre-size only the dense
  // id→slot indexes (4 bytes/id), which every class consults.
  for (auto& lru : lru_) lru.reserve(keys, 0);
}

Cachet::~Cachet() {
  assoc_.for_each([this](const Item& item) { this->memory().remove(item.key); });
}

std::uint64_t Cachet::overhead_bytes() const {
  // Bucket array + free/tail slab slack. Live chunks are already accounted
  // against the node at chunk granularity by put().
  return assoc_.overhead_bytes() + slabs_.slack_bytes();
}

void Cachet::lru_touch(Item& item) {
  (void)lru_[item.slab_class].touch(item.key);
}

bool Cachet::evict_one(std::size_t cls) {
  auto& lru = lru_[cls];
  if (lru.empty()) return false;
  const std::uint64_t victim = lru.back_id();
  drop_item(victim);
  ++stats_.evictions;
  return true;
}

void Cachet::drop_item(std::uint64_t key) {
  auto erased = assoc_.erase(key);
  MNEMO_ASSERT(erased.erased);
  Item& item = erased.item;
  const bool unlinked = lru_[item.slab_class].erase(key);
  MNEMO_ASSERT(unlinked);
  slabs_.give_back(item.slab_class, item.value.size);
  memory().remove(key);
}

OpResult Cachet::get(std::uint64_t key, const KeyHints& hints) {
  ++stats_.gets;
  const auto found = assoc_.find(key, hints.hash);
  double ns = profile().cpu_read_ns + index_walk_ns(1, found.probes);
  if (found.item == nullptr) {
    ++stats_.misses;
    return finalize(false, ns, false);
  }
  ++stats_.hits;
  lru_touch(*found.item);
  const auto access =
      payload_access(key, found.item->value.size, MemOp::kRead);
  ns += access.ns;
  return finalize(true, ns, access.llc_hit);
}

OpResult Cachet::put(std::uint64_t key, std::uint64_t value_size,
                     const KeyHints& hints) {
  ++stats_.puts;
  double ns = profile().cpu_write_ns;

  // Update in place if present (memcached `set` on an existing key).
  auto found = assoc_.find(key, hints.hash);
  ns += index_walk_ns(1, found.probes);
  if (found.item != nullptr) {
    const std::size_t old_cls = found.item->slab_class;
    const std::size_t new_cls = slabs_.class_for(value_size);
    const std::uint64_t new_chunk = slabs_.chunk_bytes(new_cls, value_size);
    // Resize first: an update the node cannot fit leaves the item in its
    // slab class, untouched.
    if (!memory().resize(key, new_chunk)) {
      return finalize(false, ns, false);
    }
    // A new chunk — another class, or a huge item whose page-rounded size
    // changed: release the old one, take the new one, and charge the
    // node for any slab page the new class opened.
    if (new_cls != old_cls ||
        new_chunk != slabs_.chunk_bytes(old_cls, found.item->value.size)) {
      slabs_.give_back(old_cls, found.item->value.size);
      slabs_.take(new_cls, value_size);
      sync_overhead_accounting(overhead_bytes());
    }
    if (new_cls != old_cls) {
      (void)lru_[old_cls].erase(key);
      lru_[new_cls].push_front(key, {});
      found.item->slab_class = new_cls;
    }
    found.item->value = Record{value_size};
    lru_touch(*found.item);
    const auto access = payload_access(key, value_size, MemOp::kWrite);
    ns += access.ns;
    return finalize(true, ns, access.llc_hit);
  }

  const std::size_t cls = slabs_.class_for(value_size);
  const std::uint64_t chunk = slabs_.chunk_bytes(cls, value_size);
  // Evict from this item's class until the node can hold the chunk.
  while (!memory().place(key, chunk, node())) {
    if (!evict_one(cls)) {
      return finalize(false, ns, false);
    }
  }
  slabs_.take(cls, value_size);
  Item item;
  item.key = key;
  item.value = Record{value_size};
  item.slab_class = cls;
  lru_[cls].push_front(key, {});
  std::uint32_t probes = 0;
  assoc_.insert(std::move(item), &probes, hints.hash);
  ns += index_walk_ns(0, probes);
  sync_overhead_accounting(overhead_bytes());
  const auto access = payload_access(key, value_size, MemOp::kWrite);
  ns += access.ns;
  return finalize(true, ns, access.llc_hit);
}

OpResult Cachet::erase(std::uint64_t key) {
  ++stats_.erases;
  const auto found = assoc_.find(key);
  const double ns = profile().cpu_write_ns + index_walk_ns(1, found.probes);
  if (found.item == nullptr) return finalize(false, ns, false);
  drop_item(key);
  sync_overhead_accounting(overhead_bytes());
  return finalize(true, ns, false);
}

}  // namespace mnemo::kvstore
