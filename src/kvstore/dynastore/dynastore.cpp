#include "kvstore/dynastore/dynastore.hpp"

namespace mnemo::kvstore {

using hybridmem::MemOp;

DynaStore::DynaStore(hybridmem::HybridMemory& memory,
                     const StoreConfig& config)
    : KeyValueStore(memory, config, StoreKind::kDynaStore) {}

DynaStore::~DynaStore() {
  tree_.for_each([this](std::uint64_t key, const Record& /*rec*/) {
    memory().remove(key);
  });
}

OpResult DynaStore::get(std::uint64_t key, const KeyHints& /*hints*/) {
  auto found = tree_.find(key);
  // Upper tree levels stay hot in cache; the leaf and the per-item
  // metadata block are dependent misses on the data's node.
  const std::uint32_t hot = found.depth > 1 ? found.depth - 1 : 0;
  double ns = profile().cpu_read_ns + index_walk_ns(hot, 2);
  if (found.record == nullptr) return finalize(false, ns);
  const auto access = payload_access(key, found.record->size, MemOp::kRead);
  ns += access.ns;
  return finalize(true, ns);
}

OpResult DynaStore::put(std::uint64_t key, std::uint64_t value_size,
                        const KeyHints& /*hints*/) {
  // 1. Journal append (WAL discipline: log before applying).
  const auto logged = journal_.append(key, value_size);
  (void)logged;

  // 2. Apply to the tree.
  const auto up = tree_.upsert(key, Record{value_size});
  const std::uint32_t hot = up.depth > 1 ? up.depth - 1 : 0;
  double ns = profile().cpu_write_ns + index_walk_ns(hot, 3);

  // 3. Capacity accounting for the record payload.
  if (up.existed) {
    if (!memory().resize(key, value_size)) {
      // The node still accounts the old size: restore it in the tree.
      up.record->size = *memory().object_size(key);
      return finalize(false, ns);
    }
  } else if (!memory().place(key, value_size, node())) {
    (void)tree_.erase(key);
    return finalize(false, ns);
  }
  sync_overhead_accounting(overhead_bytes());

  const auto access = payload_access(key, value_size, MemOp::kWrite);
  ns += access.ns;
  return finalize(true, ns);
}

OpResult DynaStore::erase(std::uint64_t key) {
  const auto er = tree_.erase(key);
  const std::uint32_t hot = er.depth > 1 ? er.depth - 1 : 0;
  double ns = profile().cpu_write_ns + index_walk_ns(hot, 2);
  if (!er.erased) return finalize(false, ns);
  journal_.append(key, 0);  // deletion marker
  memory().remove(key);
  sync_overhead_accounting(overhead_bytes());
  return finalize(true, ns);
}

}  // namespace mnemo::kvstore
