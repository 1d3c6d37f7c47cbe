#include "kvstore/cachet/cachet.hpp"

#include "util/assert.hpp"

namespace mnemo::kvstore {

using cachet::Item;
using hybridmem::MemOp;

Cachet::Cachet(hybridmem::HybridMemory& memory, const StoreConfig& config)
    : KeyValueStore(memory, config, StoreKind::kCachet) {}

Cachet::~Cachet() {
  assoc_.for_each([this](const Item& item) { this->memory().remove(item.key); });
}

std::uint64_t Cachet::overhead_bytes() const {
  // Bucket array + free/tail slab slack. Live chunks are already accounted
  // against the node at chunk granularity by put().
  return assoc_.overhead_bytes() + slabs_.slack_bytes();
}

OpResult Cachet::get(std::uint64_t key, const KeyHints& hints) {
  const auto found = assoc_.find(key, hints.hash);
  double ns = profile().cpu_read_ns + index_walk_ns(1, found.probes);
  if (found.item == nullptr) return finalize(false, ns);
  const auto access =
      payload_access(key, found.item->value.size, MemOp::kRead);
  ns += access.ns;
  return finalize(true, ns);
}

OpResult Cachet::put(std::uint64_t key, std::uint64_t value_size,
                     const KeyHints& hints) {
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
    if (!memory().resize(key, new_chunk)) return finalize(false, ns);
    // A new chunk — another class, or a huge item whose page-rounded size
    // changed: release the old one, take the new one, and charge the
    // node for any slab page the new class opened.
    if (new_cls != old_cls ||
        new_chunk != slabs_.chunk_bytes(old_cls, found.item->value.size)) {
      slabs_.give_back(old_cls, found.item->value.size);
      slabs_.take(new_cls, value_size);
      sync_overhead_accounting(overhead_bytes());
    }
    found.item->slab_class = new_cls;
    found.item->value = Record{value_size};
    const auto access = payload_access(key, value_size, MemOp::kWrite);
    ns += access.ns;
    return finalize(true, ns);
  }

  const std::size_t cls = slabs_.class_for(value_size);
  const std::uint64_t chunk = slabs_.chunk_bytes(cls, value_size);
  if (!memory().place(key, chunk, node())) return finalize(false, ns);
  slabs_.take(cls, value_size);
  Item item;
  item.key = key;
  item.value = Record{value_size};
  item.slab_class = cls;
  std::uint32_t probes = 0;
  assoc_.insert(std::move(item), &probes, hints.hash);
  ns += index_walk_ns(0, probes);
  sync_overhead_accounting(overhead_bytes());
  const auto access = payload_access(key, value_size, MemOp::kWrite);
  ns += access.ns;
  return finalize(true, ns);
}

OpResult Cachet::erase(std::uint64_t key) {
  const auto found = assoc_.find(key);
  const double ns = profile().cpu_write_ns + index_walk_ns(1, found.probes);
  if (found.item == nullptr) return finalize(false, ns);
  const auto erased = assoc_.erase(key);
  MNEMO_ASSERT(erased.erased);
  slabs_.give_back(erased.item.slab_class, erased.item.value.size);
  memory().remove(key);
  sync_overhead_accounting(overhead_bytes());
  return finalize(true, ns);
}

}  // namespace mnemo::kvstore
