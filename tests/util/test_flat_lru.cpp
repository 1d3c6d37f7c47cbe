#include "util/flat_lru.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace mnemo::util {
namespace {

/// The structure FlatLru replaces: a std::list of (id, payload) nodes plus
/// an id → iterator map. Kept here as the behavioural reference so the
/// equivalence test below pins FlatLru to the exact order semantics of the
/// pre-refactor LRUs.
class ReferenceLru {
 public:
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] bool empty() const { return list_.empty(); }

  std::uint64_t* find(std::uint64_t id) {
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  std::uint64_t* touch(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    list_.splice(list_.begin(), list_, it->second);
    return &it->second->second;
  }

  void push_front(std::uint64_t id, std::uint64_t payload) {
    list_.emplace_front(id, payload);
    index_[id] = list_.begin();
  }

  [[nodiscard]] std::uint64_t back_id() const { return list_.back().first; }
  [[nodiscard]] std::uint64_t back() const { return list_.back().second; }

  void pop_back() {
    index_.erase(list_.back().first);
    list_.pop_back();
  }

  bool erase(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    list_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    list_.clear();
    index_.clear();
  }

  /// MRU-to-LRU id sequence, for whole-order comparison.
  [[nodiscard]] std::vector<std::uint64_t> order() const {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, payload] : list_) ids.push_back(id);
    return ids;
  }

 private:
  std::list<std::pair<std::uint64_t, std::uint64_t>> list_;
  std::unordered_map<
      std::uint64_t,
      std::list<std::pair<std::uint64_t, std::uint64_t>>::iterator>
      index_;
};

std::vector<std::uint64_t> drain_order(FlatLru<std::uint64_t> lru) {
  std::vector<std::uint64_t> ids;
  // back_id/pop_back walk the recency order LRU-first; reverse at the end.
  while (!lru.empty()) {
    ids.push_back(lru.back_id());
    lru.pop_back();
  }
  std::reverse(ids.begin(), ids.end());
  return ids;
}

TEST(FlatLru, BasicOrderSemantics) {
  FlatLru<std::uint64_t> lru;
  lru.push_front(1, 10);
  lru.push_front(2, 20);
  lru.push_front(3, 30);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.back_id(), 1u);  // oldest
  EXPECT_EQ(lru.back(), 10u);
  ASSERT_NE(lru.touch(1), nullptr);  // 1 becomes MRU
  EXPECT_EQ(lru.back_id(), 2u);
  EXPECT_EQ(*lru.find(3), 30u);
  EXPECT_EQ(lru.back_id(), 2u) << "find must not disturb recency";
  lru.pop_back();
  EXPECT_FALSE(lru.erase(2)) << "already popped";
  EXPECT_TRUE(lru.erase(3));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.back_id(), 1u);
}

TEST(FlatLru, TouchAndFindMissingReturnNull) {
  FlatLru<std::uint64_t> lru;
  EXPECT_EQ(lru.touch(7), nullptr);
  EXPECT_EQ(lru.find(7), nullptr);
  lru.push_front(7, 70);
  lru.pop_back();
  EXPECT_EQ(lru.find(7), nullptr);
}

TEST(FlatLru, SlotsAreReusedAfterErase) {
  FlatLru<std::uint64_t> lru;
  lru.reserve(/*ids=*/16, /*slots=*/2);
  // Two slots suffice forever if at most two entries are live at a time.
  for (std::uint64_t round = 0; round < 100; ++round) {
    lru.push_front(round % 16, round);
    if (lru.size() > 2) ADD_FAILURE();
    if (lru.size() == 2) lru.pop_back();
  }
  EXPECT_EQ(lru.size(), 1u);
}

TEST(FlatLru, ClearKeepsWorkingAfterwards) {
  FlatLru<std::uint64_t> lru;
  for (std::uint64_t id = 0; id < 8; ++id) lru.push_front(id, id);
  lru.clear();
  EXPECT_TRUE(lru.empty());
  EXPECT_EQ(lru.find(3), nullptr);
  lru.push_front(3, 33);
  EXPECT_EQ(lru.back_id(), 3u);
}

// The satellite equivalence check: drive FlatLru and the list+map
// reference with the same randomized operation stream and require the
// same return values and, at every checkpoint, the same full MRU→LRU
// order. IDs mix the first index allocation's range with IDs far past
// it, so the index also grows mid-stream.
TEST(FlatLru, MatchesListMapReferenceUnderRandomizedOps) {
  Rng rng(0xf1a7);
  FlatLru<std::uint64_t> flat;
  ReferenceLru ref;
  std::uint64_t next_payload = 0;

  const auto pick_id = [&]() -> std::uint64_t {
    const std::uint64_t base = rng.uniform(0, 40);
    // One in five ops targets an ID far past the first allocation.
    return rng.uniform(0, 4) == 0 ? (1ULL << 16) + base : base;
  };

  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t id = pick_id();
    switch (rng.uniform(0, 5)) {
      case 0:
      case 1: {  // upsert: touch if present, insert otherwise
        std::uint64_t* f = flat.touch(id);
        std::uint64_t* r = ref.touch(id);
        ASSERT_EQ(f == nullptr, r == nullptr);
        if (f == nullptr) {
          const std::uint64_t payload = ++next_payload;
          flat.push_front(id, payload);
          ref.push_front(id, payload);
        } else {
          ASSERT_EQ(*f, *r);
        }
        break;
      }
      case 2: {  // read-only probe
        std::uint64_t* f = flat.find(id);
        std::uint64_t* r = ref.find(id);
        ASSERT_EQ(f == nullptr, r == nullptr);
        if (f != nullptr) {
          ASSERT_EQ(*f, *r);
        }
        break;
      }
      case 3:  // targeted delete
        ASSERT_EQ(flat.erase(id), ref.erase(id));
        break;
      case 4:  // evict the LRU victim
        ASSERT_EQ(flat.empty(), ref.empty());
        if (!flat.empty()) {
          ASSERT_EQ(flat.back_id(), ref.back_id());
          ASSERT_EQ(flat.back(), ref.back());
          flat.pop_back();
          ref.pop_back();
        }
        break;
      default:  // rare full reset
        if (rng.uniform(0, 200) == 0) {
          flat.clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(flat.size(), ref.size());
    if (op % 1000 == 0) {
      ASSERT_EQ(drain_order(flat), ref.order())
          << "recency order diverged at op " << op;
    }
  }
  EXPECT_EQ(drain_order(flat), ref.order());
}

}  // namespace
}  // namespace mnemo::util
