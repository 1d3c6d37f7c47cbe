#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/cachet/cachet.hpp"
#include "kvstore/dynastore/dynastore.hpp"
#include "kvstore/factory.hpp"
#include "util/bytes.hpp"

namespace mnemo::kvstore {
namespace {

using hybridmem::EmulationProfile;
using hybridmem::HybridMemory;
using hybridmem::NodeId;
using util::kKiB;
using util::kMiB;

EmulationProfile test_profile(std::uint64_t node_bytes = 64 * kMiB) {
  return hybridmem::paper_testbed_with_capacity(node_bytes);
}

StoreConfig test_config(NodeId node = NodeId::kFast) {
  StoreConfig cfg;
  cfg.node = node;
  cfg.deterministic_service = true;  // exact comparisons in unit tests
  return cfg;
}

class AnyStore : public ::testing::TestWithParam<StoreKind> {
 protected:
  HybridMemory memory_{test_profile()};
};

TEST_P(AnyStore, PutGetEraseSemantics) {
  auto store = make_store(GetParam(), memory_, test_config());
  EXPECT_FALSE(store->get(1).ok);
  EXPECT_TRUE(store->put(1, 4096).ok);
  EXPECT_EQ(memory_.locate(1), NodeId::kFast);
  EXPECT_EQ(store->record_count(), 1u);

  const OpResult got = store->get(1);
  EXPECT_TRUE(got.ok);
  EXPECT_GT(got.service_ns, 0.0);

  EXPECT_TRUE(store->erase(1).ok);
  EXPECT_FALSE(memory_.locate(1).has_value());
  EXPECT_FALSE(store->erase(1).ok);
  EXPECT_EQ(store->record_count(), 0u);
}

TEST_P(AnyStore, MemoryAccountingFollowsRecords) {
  auto store = make_store(GetParam(), memory_, test_config());
  const auto before = memory_.node(NodeId::kFast).used_bytes();
  store->put(1, 10 * kKiB);
  store->put(2, 10 * kKiB);
  const auto after = memory_.node(NodeId::kFast).used_bytes();
  // At least the payload bytes land on the node (stores may round up —
  // Cachet's slab chunks — and add index overhead).
  EXPECT_GE(after - before, 20 * kKiB);
  store->erase(1);
  store->erase(2);
  if (GetParam() == StoreKind::kCachet) {
    // Memcached semantics: freed chunks return to the slab free list but
    // pages are never released, so node usage does not shrink.
    EXPECT_LE(memory_.node(NodeId::kFast).used_bytes(), after);
    EXPECT_EQ(store->record_count(), 0u);
  } else {
    EXPECT_LT(memory_.node(NodeId::kFast).used_bytes(), after);
  }
}

TEST_P(AnyStore, SlowNodeIsSlowerForBigRecords) {
  auto fast = make_store(GetParam(), memory_, test_config(NodeId::kFast));
  auto slow = make_store(GetParam(), memory_, test_config(NodeId::kSlow));
  // > LLC bypass threshold so placement is what matters.
  fast->put(1, 100 * kKiB);
  slow->put(2, 100 * kKiB);
  const double fast_ns = fast->get(1).service_ns;
  const double slow_ns = slow->get(2).service_ns;
  EXPECT_GT(slow_ns, fast_ns);
}

TEST_P(AnyStore, UpdateChangesSizeAccounting) {
  auto store = make_store(GetParam(), memory_, test_config());
  store->put(1, 10 * kKiB);
  const auto small = memory_.total_used_bytes();
  EXPECT_TRUE(store->put(1, 40 * kKiB).ok);
  EXPECT_GT(memory_.total_used_bytes(), small);
  EXPECT_EQ(store->record_count(), 1u);
}

TEST_P(AnyStore, FailedGrowingUpdateLeavesTheStoreAsItWas) {
  HybridMemory memory(test_profile(1 * kMiB));
  auto store = make_store(GetParam(), memory, test_config());
  // Fill the node: DynaStore's journal overhead leaves room for fewer
  // than eight records, and key 0, the first in, stays.
  for (std::uint64_t k = 0; k < 8; ++k) store->put(k, 100 * kKiB);
  ASSERT_TRUE(memory.locate(0).has_value());
  const auto cold_get = [&] {
    memory.drop_caches();
    return store->get(0).service_ns;
  };
  const double get_ns = cold_get();
  const auto size = memory.object_size(0);
  const std::uint64_t used = memory.node(NodeId::kFast).used_bytes();
  const std::size_t records = store->record_count();
  const std::uint64_t overhead = store->overhead_bytes();

  EXPECT_FALSE(store->put(0, 900 * kKiB).ok) << "the node cannot fit it";

  EXPECT_EQ(cold_get(), get_ns) << "a get still streams the old size";
  EXPECT_EQ(memory.object_size(0), size);
  EXPECT_EQ(memory.node(NodeId::kFast).used_bytes(), used);
  EXPECT_EQ(store->record_count(), records);
  // DynaStore's write-ahead journal logs the attempt before applying it.
  if (GetParam() != StoreKind::kDynaStore) {
    EXPECT_EQ(store->overhead_bytes(), overhead);
  }
}

TEST_P(AnyStore, PutFailsWhenNodeFull) {
  HybridMemory memory(test_profile(4 * kMiB));
  auto store = make_store(GetParam(), memory, test_config());
  std::vector<std::uint64_t> accepted;
  for (std::uint64_t k = 0; k < 100; ++k) {
    if (store->put(k, 100 * kKiB).ok) accepted.push_back(k);
  }
  EXPECT_LT(accepted.size(), 100u) << "no store evicts to make room";
  // A rejected insert leaves no record behind and drops no other.
  EXPECT_EQ(store->record_count(), accepted.size());
  for (const std::uint64_t k : accepted) {
    EXPECT_TRUE(memory.locate(k).has_value()) << "key " << k;
  }
}

TEST_P(AnyStore, OverheadBytesReported) {
  auto store = make_store(GetParam(), memory_, test_config());
  for (std::uint64_t k = 0; k < 200; ++k) store->put(k, 1000);
  EXPECT_GT(store->overhead_bytes(), 0u);
}

TEST_P(AnyStore, DeterministicServiceTimesAreReproducible) {
  auto run = [&](HybridMemory& mem) {
    auto store = make_store(GetParam(), mem, test_config());
    double total = 0.0;
    for (std::uint64_t k = 0; k < 100; ++k) total += store->put(k, 5000).service_ns;
    for (std::uint64_t k = 0; k < 100; ++k) total += store->get(k).service_ns;
    return total;
  };
  HybridMemory mem_a(test_profile());
  HybridMemory mem_b(test_profile());
  EXPECT_DOUBLE_EQ(run(mem_a), run(mem_b));
}

TEST_P(AnyStore, JitterChangesTimingButNotResults) {
  StoreConfig noisy = test_config();
  noisy.deterministic_service = false;
  auto store = make_store(GetParam(), memory_, noisy);
  store->put(1, 5000);
  const OpResult a = store->get(1);
  const OpResult b = store->get(1);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_NE(a.service_ns, b.service_ns) << "jitter should vary timing";
}

TEST_P(AnyStore, DestructorReleasesAllMemory) {
  const auto baseline = memory_.total_used_bytes();
  {
    auto store = make_store(GetParam(), memory_, test_config());
    for (std::uint64_t k = 0; k < 100; ++k) store->put(k, 10 * kKiB);
    EXPECT_GT(memory_.total_used_bytes(), baseline);
  }
  EXPECT_EQ(memory_.total_used_bytes(), baseline)
      << "store teardown must return every byte to the node";
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, AnyStore,
    ::testing::Values(StoreKind::kVermilion, StoreKind::kCachet,
                      StoreKind::kDynaStore),
    [](const auto& info) { return std::string(to_string(info.param)); });

// ------------------------------------------------- store-specific corners

TEST(Cachet, UpdateIntoAnotherClassChargesItsNewSlabPage) {
  HybridMemory memory(test_profile());
  auto base = make_store(StoreKind::kCachet, memory, test_config());
  auto* store = dynamic_cast<Cachet*>(base.get());
  ASSERT_NE(store, nullptr);
  store->put(1, 10 * kKiB);
  // 40 KiB lands in a class with no page yet: the update opens one.
  ASSERT_TRUE(store->put(1, 40 * kKiB).ok);
  EXPECT_EQ(memory.node(NodeId::kFast).used_bytes(),
            store->slabs().used_chunk_bytes() + store->overhead_bytes());
}

TEST(Cachet, HugeItemUpdateKeepsTheSlabCountersRight) {
  HybridMemory memory(test_profile());
  auto base = make_store(StoreKind::kCachet, memory, test_config());
  auto* store = dynamic_cast<Cachet*>(base.get());
  ASSERT_NE(store, nullptr);
  // Both sizes exceed a 1 MiB page: the item stays in the huge class while
  // its page-rounded size grows from 2 to 4 MiB.
  ASSERT_TRUE(store->put(1, 3 * kMiB / 2).ok);
  ASSERT_TRUE(store->put(1, 7 * kMiB / 2).ok);
  EXPECT_EQ(store->slabs().used_chunk_bytes(), 4 * kMiB);
  EXPECT_EQ(memory.node(NodeId::kFast).used_bytes(),
            store->slabs().used_chunk_bytes() + store->overhead_bytes());
  ASSERT_TRUE(store->erase(1).ok);
  EXPECT_EQ(store->slabs().pages_allocated_bytes(), 0u);
  EXPECT_EQ(store->slabs().used_chunk_bytes(), 0u);
}

TEST(DynaStore, JournalGrowsWithWrites) {
  HybridMemory memory(test_profile());
  auto base = make_store(StoreKind::kDynaStore, memory, test_config());
  auto* store = dynamic_cast<DynaStore*>(base.get());
  ASSERT_NE(store, nullptr);
  for (std::uint64_t k = 0; k < 100; ++k) store->put(k, 10 * kKiB);
  EXPECT_EQ(store->journal().appends(), 100u);
  EXPECT_GT(store->journal().bytes(), 100 * 10 * kKiB);
  EXPECT_GE(store->tree().height(), 1u);
}

TEST(DynaStore, GetDepthCostGrowsWithDataset) {
  HybridMemory memory(test_profile(512 * kMiB));
  auto store = make_store(StoreKind::kDynaStore, memory, test_config());
  store->put(0, 1024);
  const double shallow = store->get(0).service_ns;
  for (std::uint64_t k = 1; k < 50'000; ++k) store->put(k, 8);
  memory.drop_caches();
  const double deep = store->get(0).service_ns;
  EXPECT_GT(deep, shallow * 0.9)
      << "deeper trees cannot get cheaper to search";
}

}  // namespace
}  // namespace mnemo::kvstore
