#pragma once

#include "kvstore/kvstore.hpp"
#include "kvstore/vermilion/dict.hpp"

namespace mnemo::kvstore {

/// Redis-like store: a single-threaded event-loop engine over a chained
/// hash dict with incremental rehash. The service model charges one
/// dependent node-latency probe per chain link walked plus one payload
/// stream per request — the architecture whose sensitivity to SlowMem
/// tracks the key-access distribution most directly (paper Fig 5a).
///
/// A write that does not fit its node is rejected (Redis `noeviction`).
class Vermilion final : public KeyValueStore {
 public:
  Vermilion(hybridmem::HybridMemory& memory, const StoreConfig& config);
  ~Vermilion() override;

  using KeyValueStore::get;
  using KeyValueStore::put;
  OpResult get(std::uint64_t key, const KeyHints& hints) override;
  OpResult put(std::uint64_t key, std::uint64_t value_size,
               const KeyHints& hints) override;
  OpResult erase(std::uint64_t key) override;

  void reserve_keys(std::size_t keys) override { dict_.reserve(keys); }

  [[nodiscard]] std::size_t record_count() const override {
    return dict_.size();
  }
  [[nodiscard]] std::uint64_t overhead_bytes() const override {
    return dict_.overhead_bytes();
  }

 private:
  vermilion::Dict dict_;
};

}  // namespace mnemo::kvstore
