#include "hybridmem/hybrid_memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/bytes.hpp"

namespace mnemo::hybridmem {
namespace {

EmulationProfile small_profile() {
  EmulationProfile p = paper_testbed_with_capacity(10 * util::kMiB);
  return p;
}

/// Whether one read of `id` hit the LLC, read off its hit counter.
bool read_hits_llc(HybridMemory& mem, std::uint64_t id,
                   const AccessTraits& t) {
  const std::uint64_t before = mem.llc().hits();
  mem.access(id, MemOp::kRead, t);
  return mem.llc().hits() == before + 1;
}

TEST(HybridMemory, PlaceLocateRemove) {
  HybridMemory mem(small_profile());
  EXPECT_TRUE(mem.place(1, 1000, NodeId::kFast));
  EXPECT_TRUE(mem.place(2, 2000, NodeId::kSlow));
  EXPECT_EQ(mem.locate(1), NodeId::kFast);
  EXPECT_EQ(mem.locate(2), NodeId::kSlow);
  EXPECT_EQ(mem.object_size(1), 1000u);
  EXPECT_EQ(mem.total_used_bytes(), 3000u);
  mem.remove(1);
  EXPECT_FALSE(mem.locate(1).has_value());
  EXPECT_EQ(mem.node(NodeId::kFast).used_bytes(), 0u);
  mem.remove(42);  // unknown id: no-op
}

TEST(HybridMemory, PlaceFailsWhenNodeFull) {
  HybridMemory mem(small_profile());
  EXPECT_TRUE(mem.place(1, 9 * util::kMiB, NodeId::kFast));
  EXPECT_FALSE(mem.place(2, 2 * util::kMiB, NodeId::kFast));
  EXPECT_TRUE(mem.place(2, 2 * util::kMiB, NodeId::kSlow));
}

TEST(HybridMemory, ResizeAdjustsAccounting) {
  HybridMemory mem(small_profile());
  ASSERT_TRUE(mem.place(1, 1000, NodeId::kFast));
  EXPECT_TRUE(mem.resize(1, 4000));
  EXPECT_EQ(mem.node(NodeId::kFast).used_bytes(), 4000u);
  EXPECT_TRUE(mem.resize(1, 500));
  EXPECT_EQ(mem.node(NodeId::kFast).used_bytes(), 500u);
  EXPECT_FALSE(mem.resize(1, 100 * util::kMiB));
  EXPECT_EQ(mem.object_size(1), 500u);
}

TEST(HybridMemory, AccessPricesAgainstOwningNode) {
  HybridMemory mem(small_profile());
  // > bypass threshold (64 KiB) so the LLC never interferes.
  const std::uint64_t big = 100 * util::kKiB;
  ASSERT_TRUE(mem.place(1, big, NodeId::kFast));
  ASSERT_TRUE(mem.place(2, big, NodeId::kSlow));
  AccessTraits t;
  const double fast_ns = mem.access(1, MemOp::kRead, t).ns;
  const double slow_ns = mem.access(2, MemOp::kRead, t).ns;
  EXPECT_GT(slow_ns, fast_ns * 5.0)
      << "SlowMem streams ~8x slower at these sizes";
  // Matches the raw node pricing with the object's size streamed.
  AccessTraits explicit_t;
  explicit_t.streamed_bytes = big;
  EXPECT_NEAR(fast_ns, mem.raw_access_ns(NodeId::kFast, explicit_t, MemOp::kRead),
              1e-9);
}

TEST(HybridMemory, SmallObjectsHitLlcOnReuse) {
  HybridMemory mem(small_profile());
  ASSERT_TRUE(mem.place(1, 1024, NodeId::kSlow));
  AccessTraits t;
  const std::uint64_t hits = mem.llc().hits();
  const AccessResult miss = mem.access(1, MemOp::kRead, t);
  EXPECT_EQ(mem.llc().hits(), hits);
  const AccessResult hit = mem.access(1, MemOp::kRead, t);
  EXPECT_EQ(mem.llc().hits(), hits + 1);
  EXPECT_LT(hit.ns, miss.ns * 0.2)
      << "an LLC hit hides the SlowMem penalty";
}

TEST(HybridMemory, DropCachesForcesMissesAgain) {
  HybridMemory mem(small_profile());
  ASSERT_TRUE(mem.place(1, 1024, NodeId::kFast));
  AccessTraits t;
  mem.access(1, MemOp::kRead, t);
  ASSERT_TRUE(read_hits_llc(mem, 1, t));
  mem.drop_caches();
  EXPECT_FALSE(read_hits_llc(mem, 1, t));
}

TEST(HybridMemory, RemoveInvalidatesLlc) {
  HybridMemory mem(small_profile());
  ASSERT_TRUE(mem.place(1, 1024, NodeId::kFast));
  AccessTraits t;
  mem.access(1, MemOp::kRead, t);
  mem.remove(1);
  ASSERT_TRUE(mem.place(1, 1024, NodeId::kFast));
  EXPECT_FALSE(read_hits_llc(mem, 1, t));
}

TEST(HybridMemory, MetadataOnlyAccessStreamsObjectSize) {
  HybridMemory mem(small_profile());
  const std::uint64_t big = 200 * util::kKiB;
  ASSERT_TRUE(mem.place(1, big, NodeId::kFast));
  AccessTraits zero;  // streamed_bytes == 0 -> object size is used
  AccessTraits expl;
  expl.streamed_bytes = big;
  EXPECT_NEAR(mem.access(1, MemOp::kRead, zero).ns,
              mem.raw_access_ns(NodeId::kFast, expl, MemOp::kRead), 1e-9);
}

}  // namespace
}  // namespace mnemo::hybridmem
