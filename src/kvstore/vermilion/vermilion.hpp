#pragma once

#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "kvstore/kvstore.hpp"
#include "kvstore/vermilion/dict.hpp"
#include "util/flat_lru.hpp"

namespace mnemo::kvstore {

/// What Vermilion does when a write does not fit its node — the Redis
/// `maxmemory-policy` analogue.
enum class EvictionPolicy : std::uint8_t {
  kNoEviction = 0,     ///< reject the write (Redis noeviction, default)
  kAllKeysLru = 1,     ///< evict the approximately least-recently-used key
  kAllKeysRandom = 2,  ///< evict a uniformly random key
};

std::string_view to_string(EvictionPolicy policy);

/// Redis-like store: a single-threaded event-loop engine over a chained
/// hash dict with incremental rehash. The service model charges one
/// dependent node-latency probe per chain link walked plus one payload
/// stream per request — the architecture whose sensitivity to SlowMem
/// tracks the key-access distribution most directly (paper Fig 5a).
class Vermilion final : public KeyValueStore {
 public:
  Vermilion(hybridmem::HybridMemory& memory, const StoreConfig& config,
            EvictionPolicy eviction = EvictionPolicy::kNoEviction);
  ~Vermilion() override;

  [[nodiscard]] EvictionPolicy eviction_policy() const noexcept {
    return eviction_;
  }

  using KeyValueStore::get;
  using KeyValueStore::put;
  OpResult get(std::uint64_t key, const KeyHints& hints) override;
  OpResult put(std::uint64_t key, std::uint64_t value_size,
               const KeyHints& hints) override;
  OpResult erase(std::uint64_t key) override;

  void reserve_keys(std::size_t keys) override;

  [[nodiscard]] bool contains(std::uint64_t key) const override;
  [[nodiscard]] std::size_t record_count() const override {
    return dict_.size();
  }
  [[nodiscard]] std::uint64_t overhead_bytes() const override {
    return dict_.overhead_bytes();
  }

 protected:
  Record* mutable_record(std::uint64_t key) override;

 private:
  void drop_expired(std::uint64_t key);
  /// Free space for `need` bytes per the eviction policy. Returns false
  /// if no victim can be found (empty store or kNoEviction).
  bool evict_for(std::uint64_t need, std::uint64_t protect_key);
  /// Redis-style sampled-LRU victim: of `kEvictionSamples` random keys,
  /// pick the least recently touched.
  std::uint64_t pick_lru_victim(std::uint64_t protect_key);
  std::uint64_t pick_random_victim(std::uint64_t protect_key);

  static constexpr int kEvictionSamples = 5;  // Redis maxmemory-samples

  /// Per-key last-access stamps, flat-table edition (DESIGN.md §8): a
  /// stamp of 0 means "never touched", exactly what the old map returned
  /// for a missing key, so erasing a key is resetting its slot to 0.
  void stamp_access(std::uint64_t key);
  void clear_stamp(std::uint64_t key);
  [[nodiscard]] std::uint64_t stamp_of(std::uint64_t key) const;

  vermilion::Dict dict_;
  EvictionPolicy eviction_;
  util::Rng eviction_rng_;
  /// Approximate LRU clock: per-key last-access stamps (op counter).
  std::uint64_t access_clock_ = 0;
  std::pmr::vector<std::uint64_t> last_access_dense_;
  std::unordered_map<std::uint64_t, std::uint64_t> last_access_overflow_;
};

}  // namespace mnemo::kvstore
