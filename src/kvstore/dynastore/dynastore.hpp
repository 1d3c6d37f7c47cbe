#pragma once

#include "kvstore/dynastore/btree.hpp"
#include "kvstore/dynastore/journal.hpp"
#include "kvstore/kvstore.hpp"

namespace mnemo::kvstore {

/// DynamoDB-local-like store: a B+-tree index, per-item metadata blocks and
/// a write-ahead journal. Reads descend the tree (dependent pointer chases)
/// and copy the item several times (storage engine -> item cache ->
/// response); writes additionally append to the journal. This is the most
/// SlowMem-sensitive architecture in the paper's comparison (Fig 8b/9) —
/// here that emerges from its access pattern rather than a tuned constant:
/// the deepest dependent-miss chains and the highest stream amplification.
class DynaStore final : public KeyValueStore {
 public:
  DynaStore(hybridmem::HybridMemory& memory, const StoreConfig& config);
  ~DynaStore() override;

  using KeyValueStore::get;
  using KeyValueStore::put;
  /// DynaStore does no key hashing (the B+-tree compares keys directly),
  /// so it ignores its hints.
  OpResult get(std::uint64_t key, const KeyHints& hints) override;
  OpResult put(std::uint64_t key, std::uint64_t value_size,
               const KeyHints& hints) override;
  OpResult erase(std::uint64_t key) override;

  [[nodiscard]] std::size_t record_count() const override {
    return tree_.size();
  }
  [[nodiscard]] std::uint64_t overhead_bytes() const override {
    return tree_.overhead_bytes() + journal_.bytes() +
           tree_.size() * kItemMetadataBytes;
  }

  [[nodiscard]] const dynastore::BPlusTree& tree() const noexcept {
    return tree_;
  }
  [[nodiscard]] const dynastore::Journal& journal() const noexcept {
    return journal_;
  }

 private:
  /// Per-item metadata block a DynamoDB item carries (version vector, TTL
  /// attribute, attribute map header), priced as overhead bytes only.
  static constexpr std::uint64_t kItemMetadataBytes = 256;

  dynastore::BPlusTree tree_;
  dynastore::Journal journal_;
};

}  // namespace mnemo::kvstore
