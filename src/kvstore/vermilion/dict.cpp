#include "kvstore/vermilion/dict.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mnemo::kvstore::vermilion {

Dict::Dict() { tables_[0].assign(kInitialBuckets, kNil); }

std::size_t Dict::bucket_count() const noexcept {
  return tables_[0].size() + tables_[1].size();
}

std::uint64_t Dict::overhead_bytes() const noexcept {
  // One pointer per bucket head plus a per-entry header (key, size,
  // checksum, next pointer) — the dictEntry analogue. The modelled sizes
  // describe the simulated server's layout, not this implementation's, so
  // they are unchanged by the flat storage.
  constexpr std::uint64_t kEntryHeader = 40;
  return bucket_count() * sizeof(void*) + used_ * kEntryHeader;
}

std::int32_t Dict::alloc_node(std::uint64_t key, Record&& value) {
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
  node.entry.key = key;
  node.entry.value = std::move(value);
  node.next = kNil;
  return n;
}

void Dict::maybe_start_rehash() {
  if (rehashing()) return;
  if (used_ < tables_[0].size()) return;
  tables_[1].assign(tables_[0].size() * 2, kNil);
  rehash_idx_ = 0;
}

void Dict::rehash_step() {
  if (!rehashing()) return;
  std::size_t migrated_buckets = 0;
  while (migrated_buckets < kRehashBucketsPerOp &&
         rehash_idx_ < static_cast<std::ptrdiff_t>(tables_[0].size())) {
    std::int32_t& src = tables_[0][static_cast<std::size_t>(rehash_idx_)];
    // Pop the source chain head-first onto the destination chain heads —
    // the same order the forward_list splice_after migration produced.
    while (src != kNil) {
      const std::int32_t n = src;
      Node& node = pool_[static_cast<std::size_t>(n)];
      src = node.next;
      std::int32_t& dst =
          tables_[1][bucket_of(node.entry.key, tables_[1].size())];
      node.next = dst;
      dst = n;
    }
    ++rehash_idx_;
    ++migrated_buckets;
  }
  if (rehash_idx_ >= static_cast<std::ptrdiff_t>(tables_[0].size())) {
    tables_[0] = std::move(tables_[1]);
    tables_[1].clear();
    rehash_idx_ = -1;
  }
}

Dict::FindResult Dict::find_rehashing(std::uint64_t key,
                                      std::uint64_t hash) {
  rehash_step();
  FindResult result;
  const int table_limit = rehashing() ? 2 : 1;
  for (int t = 0; t < table_limit; ++t) {
    Table& table = tables_[t];
    if (table.empty()) continue;
    for (std::int32_t n = table[hash & (table.size() - 1)]; n != kNil;
         n = pool_[static_cast<std::size_t>(n)].next) {
      ++result.probes;
      Node& node = pool_[static_cast<std::size_t>(n)];
      if (node.entry.key == key) {
        result.entry = &node.entry;
        return result;
      }
    }
  }
  if (result.probes == 0) result.probes = 1;  // empty-bucket inspection
  return result;
}

Dict::UpsertResult Dict::upsert(std::uint64_t key, Record value,
                                std::uint64_t hash) {
  maybe_start_rehash();
  rehash_step();
  UpsertResult result;
  const int table_limit = rehashing() ? 2 : 1;
  for (int t = 0; t < table_limit; ++t) {
    Table& table = tables_[t];
    if (table.empty()) continue;
    for (std::int32_t n = table[hash & (table.size() - 1)]; n != kNil;
         n = pool_[static_cast<std::size_t>(n)].next) {
      ++result.probes;
      Node& node = pool_[static_cast<std::size_t>(n)];
      if (node.entry.key == key) {
        node.entry.value = std::move(value);
        result.existed = true;
        result.entry = &node.entry;
        return result;
      }
    }
  }
  // Insert into the table new keys should land in (table 1 mid-rehash).
  Table& target = rehashing() ? tables_[1] : tables_[0];
  std::int32_t& bucket = target[hash & (target.size() - 1)];
  const std::int32_t n = alloc_node(key, std::move(value));
  pool_[static_cast<std::size_t>(n)].next = bucket;
  bucket = n;
  ++used_;
  ++result.probes;
  result.entry = &pool_[static_cast<std::size_t>(n)].entry;
  return result;
}

Dict::EraseResult Dict::erase(std::uint64_t key) {
  rehash_step();
  EraseResult result;
  const int table_limit = rehashing() ? 2 : 1;
  for (int t = 0; t < table_limit; ++t) {
    Table& table = tables_[t];
    if (table.empty()) continue;
    std::int32_t* link = &table[bucket_of(key, table.size())];
    while (*link != kNil) {
      const std::int32_t n = *link;
      Node& node = pool_[static_cast<std::size_t>(n)];
      ++result.probes;
      if (node.entry.key == key) {
        *link = node.next;
        node.next = free_;
        free_ = n;
        --used_;
        result.erased = true;
        return result;
      }
      link = &node.next;
    }
  }
  return result;
}

}  // namespace mnemo::kvstore::vermilion
