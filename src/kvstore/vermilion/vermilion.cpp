#include "kvstore/vermilion/vermilion.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mnemo::kvstore {

using hybridmem::MemOp;

std::string_view to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kNoEviction:
      return "noeviction";
    case EvictionPolicy::kAllKeysLru:
      return "allkeys-lru";
    case EvictionPolicy::kAllKeysRandom:
      return "allkeys-random";
  }
  return "?";
}

Vermilion::Vermilion(hybridmem::HybridMemory& memory,
                     const StoreConfig& config, EvictionPolicy eviction)
    : KeyValueStore(memory, config, StoreKind::kVermilion),
      dict_(config.table_memory),
      eviction_(eviction),
      eviction_rng_(config.seed ^ 0xe71c7),
      last_access_dense_(config.table_memory != nullptr
                             ? config.table_memory
                             : std::pmr::get_default_resource()) {}

void Vermilion::reserve_keys(std::size_t keys) {
  dict_.reserve(keys);
  // Stamps are pure bookkeeping (never part of overhead accounting), so
  // pre-growing them is behaviour-neutral: absent slots read as 0 either way.
  const std::size_t dense =
      std::min<std::size_t>(keys, static_cast<std::size_t>(util::kDenseIdCap));
  if (dense > last_access_dense_.size()) last_access_dense_.resize(dense, 0);
}

void Vermilion::stamp_access(std::uint64_t key) {
  const std::uint64_t stamp = ++access_clock_;
  if (key < util::kDenseIdCap) {
    if (key >= last_access_dense_.size()) {
      std::size_t grown =
          last_access_dense_.empty() ? 64 : last_access_dense_.size() * 2;
      while (grown <= key) grown *= 2;
      grown = std::min<std::size_t>(
          grown, static_cast<std::size_t>(util::kDenseIdCap));
      last_access_dense_.resize(grown, 0);
    }
    last_access_dense_[static_cast<std::size_t>(key)] = stamp;
    return;
  }
  last_access_overflow_[key] = stamp;
}

void Vermilion::clear_stamp(std::uint64_t key) {
  if (key < util::kDenseIdCap) {
    if (key < last_access_dense_.size()) {
      last_access_dense_[static_cast<std::size_t>(key)] = 0;
    }
    return;
  }
  last_access_overflow_.erase(key);
}

std::uint64_t Vermilion::stamp_of(std::uint64_t key) const {
  if (key < util::kDenseIdCap) {
    return key < last_access_dense_.size()
               ? last_access_dense_[static_cast<std::size_t>(key)]
               : 0;
  }
  const auto it = last_access_overflow_.find(key);
  return it == last_access_overflow_.end() ? 0 : it->second;
}

std::uint64_t Vermilion::pick_random_victim(std::uint64_t protect_key) {
  // Sample dict entries reservoir-style; cheap at Mnemo's scales and
  // policy-faithful (Redis samples its dict too).
  std::uint64_t victim = protect_key;
  std::uint64_t seen = 0;
  dict_.for_each([&](const vermilion::Dict::Entry& e) {
    if (e.key == protect_key) return;
    ++seen;
    if (eviction_rng_.uniform(1, seen) == 1) victim = e.key;
  });
  return victim;
}

std::uint64_t Vermilion::pick_lru_victim(std::uint64_t protect_key) {
  std::uint64_t victim = protect_key;
  std::uint64_t victim_stamp = ~0ULL;
  for (int i = 0; i < kEvictionSamples; ++i) {
    const std::uint64_t candidate = pick_random_victim(protect_key);
    if (candidate == protect_key) continue;
    const std::uint64_t stamp = stamp_of(candidate);
    if (stamp < victim_stamp) {
      victim_stamp = stamp;
      victim = candidate;
    }
  }
  return victim;
}

bool Vermilion::evict_for(std::uint64_t need, std::uint64_t protect_key) {
  if (eviction_ == EvictionPolicy::kNoEviction) return false;
  while (memory().node(node()).free_bytes() < need) {
    if (dict_.size() == 0) return false;
    const std::uint64_t victim = eviction_ == EvictionPolicy::kAllKeysLru
                                     ? pick_lru_victim(protect_key)
                                     : pick_random_victim(protect_key);
    if (victim == protect_key) return false;  // nothing else to evict
    (void)dict_.erase(victim);
    memory().remove(victim);
    clear_stamp(victim);
    ++stats_.evictions;
  }
  sync_overhead_accounting(dict_.overhead_bytes());
  return true;
}

Vermilion::~Vermilion() {
  dict_.for_each([this](const vermilion::Dict::Entry& e) {
    memory().remove(e.key);
  });
}

Record* Vermilion::mutable_record(std::uint64_t key) {
  const auto found = dict_.find(key);
  return found.entry != nullptr ? &found.entry->value : nullptr;
}

void Vermilion::drop_expired(std::uint64_t key) {
  (void)dict_.erase(key);
  memory().remove(key);
  clear_stamp(key);
  sync_overhead_accounting(dict_.overhead_bytes());
}

OpResult Vermilion::get(std::uint64_t key, const KeyHints& hints) {
  ++stats_.gets;
  const auto found = dict_.find(key, hints.hash);
  double ns = profile().cpu_read_ns + index_walk_ns(1, found.probes);
  if (found.entry == nullptr) {
    ++stats_.misses;
    return finalize(false, ns, false);
  }
  if (check_expired(found.entry->value)) {
    // Redis-style lazy expiration: reclaim on access and report a miss.
    drop_expired(key);
    ++stats_.misses;
    return finalize(false, ns, false);
  }
  ++stats_.hits;
  stamp_access(key);
  const Record& rec = found.entry->value;
  if (rec.stored()) {
    // End-to-end integrity: the payload really round-trips.
    MNEMO_ASSERT(checksum_bytes(rec.bytes) == rec.checksum);
  }
  const auto access = payload_access(key, rec.size, MemOp::kRead);
  ns += access.ns;
  return finalize(true, ns, access.llc_hit);
}

OpResult Vermilion::put(std::uint64_t key, std::uint64_t value_size,
                        const KeyHints& hints) {
  ++stats_.puts;
  Record rec = make_record(key, value_size, payload_mode(), hints.digest);
  const auto up = dict_.upsert(key, std::move(rec), hints.hash);
  double ns = profile().cpu_write_ns + index_walk_ns(1, up.probes);

  if (up.existed) {
    if (!memory().resize(key, value_size)) {
      const std::uint64_t old_size = memory().object_size(key).value_or(0);
      const std::uint64_t growth =
          value_size > old_size ? value_size - old_size : 0;
      if (!evict_for(growth, key) || !memory().resize(key, value_size)) {
        // Rollback is unnecessary: the old accounting stands; report
        // failure so the caller can react.
        return finalize(false, ns, false);
      }
    }
  } else {
    if (!memory().place(key, value_size, node())) {
      if (!evict_for(value_size, key) ||
          !memory().place(key, value_size, node())) {
        (void)dict_.erase(key);
        return finalize(false, ns, false);
      }
    }
  }
  stamp_access(key);
  sync_overhead_accounting(dict_.overhead_bytes());
  const auto access = payload_access(key, value_size, MemOp::kWrite);
  ns += access.ns;
  return finalize(true, ns, access.llc_hit);
}

OpResult Vermilion::erase(std::uint64_t key) {
  ++stats_.erases;
  const auto er = dict_.erase(key);
  const double ns = profile().cpu_write_ns + index_walk_ns(1, er.probes);
  if (!er.erased) return finalize(false, ns, false);
  memory().remove(key);
  clear_stamp(key);
  sync_overhead_accounting(dict_.overhead_bytes());
  return finalize(true, ns, false);
}

bool Vermilion::contains(std::uint64_t key) const {
  // find() advances rehash state; use a const-safe walk instead.
  bool found = false;
  dict_.for_each([&](const vermilion::Dict::Entry& e) {
    if (e.key == key) found = true;
  });
  return found;
}

}  // namespace mnemo::kvstore
