#include "kvstore/vermilion/vermilion.hpp"

namespace mnemo::kvstore {

using hybridmem::MemOp;

Vermilion::Vermilion(hybridmem::HybridMemory& memory,
                     const StoreConfig& config)
    : KeyValueStore(memory, config, StoreKind::kVermilion) {}

Vermilion::~Vermilion() {
  dict_.for_each([this](const vermilion::Dict::Entry& e) {
    memory().remove(e.key);
  });
}

OpResult Vermilion::get(std::uint64_t key, const KeyHints& hints) {
  const auto found = dict_.find(key, hints.hash);
  double ns = profile().cpu_read_ns + index_walk_ns(1, found.probes);
  if (found.entry == nullptr) return finalize(false, ns);
  const auto access =
      payload_access(key, found.entry->value.size, MemOp::kRead);
  ns += access.ns;
  return finalize(true, ns);
}

OpResult Vermilion::put(std::uint64_t key, std::uint64_t value_size,
                        const KeyHints& hints) {
  const auto up = dict_.upsert(key, Record{value_size}, hints.hash);
  double ns = profile().cpu_write_ns + index_walk_ns(1, up.probes);

  if (up.existed) {
    if (!memory().resize(key, value_size)) {
      // The node still accounts the old size: restore it in the entry
      // (a second lookup would advance the incremental rehash).
      up.entry->value.size = *memory().object_size(key);
      return finalize(false, ns);
    }
  } else if (!memory().place(key, value_size, node())) {
    (void)dict_.erase(key);
    return finalize(false, ns);
  }
  sync_overhead_accounting(dict_.overhead_bytes());
  const auto access = payload_access(key, value_size, MemOp::kWrite);
  ns += access.ns;
  return finalize(true, ns);
}

OpResult Vermilion::erase(std::uint64_t key) {
  const auto er = dict_.erase(key);
  const double ns = profile().cpu_write_ns + index_walk_ns(1, er.probes);
  if (!er.erased) return finalize(false, ns);
  memory().remove(key);
  sync_overhead_accounting(dict_.overhead_bytes());
  return finalize(true, ns);
}

}  // namespace mnemo::kvstore
