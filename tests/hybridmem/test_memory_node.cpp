#include "hybridmem/memory_node.hpp"

#include <gtest/gtest.h>

#include "hybridmem/emulation_profile.hpp"
#include "util/bytes.hpp"

namespace mnemo::hybridmem {
namespace {

NodeSpec fast_spec() { return paper_testbed().fast; }
NodeSpec slow_spec() { return paper_testbed().slow; }

TEST(NodeSpec, StreamTimeMatchesBandwidth) {
  const NodeSpec fast = fast_spec();
  // 14.9 GB/s == 14.9 bytes/ns: 14.9e9 bytes take 1e9 ns.
  EXPECT_NEAR(fast.stream_ns(14'900'000'000ULL), 1e9, 1.0);
  EXPECT_DOUBLE_EQ(fast.stream_ns(0), 0.0);
}

TEST(MemoryNode, AllocationRespectsCapacity) {
  MemoryNode node(NodeSpec{"n", 10.0, 1.0, 100});
  EXPECT_TRUE(node.allocate(60));
  EXPECT_EQ(node.used_bytes(), 60u);
  EXPECT_EQ(node.free_bytes(), 40u);
  EXPECT_FALSE(node.allocate(41));
  EXPECT_EQ(node.used_bytes(), 60u) << "failed alloc must not change state";
  EXPECT_TRUE(node.allocate(40));
  EXPECT_EQ(node.free_bytes(), 0u);
}

TEST(MemoryNode, ReleaseReturnsCapacity) {
  MemoryNode node(NodeSpec{"n", 10.0, 1.0, 100});
  ASSERT_TRUE(node.allocate(80));
  node.release(80);
  EXPECT_EQ(node.used_bytes(), 0u);
  EXPECT_TRUE(node.allocate(100));
}

TEST(MemoryNode, AccessCostLatencyOnly) {
  MemoryNode node(fast_spec());
  AccessTraits t;
  t.latency_touches = 1;
  t.streamed_bytes = 0;
  EXPECT_NEAR(node.access_ns(t, MemOp::kRead), 65.7, 1e-9);
  t.latency_touches = 3;
  EXPECT_NEAR(node.access_ns(t, MemOp::kRead), 3 * 65.7, 1e-9);
}

TEST(MemoryNode, AccessCostStreamComponent) {
  MemoryNode node(slow_spec());
  AccessTraits t;
  t.latency_touches = 1;
  t.streamed_bytes = 100 * util::kKiB;
  const double expected = 238.1 + 100.0 * 1024.0 / 1.81;
  EXPECT_NEAR(node.access_ns(t, MemOp::kRead), expected, 1e-6);
}

TEST(MemoryNode, OverlapHidesStream) {
  MemoryNode node(slow_spec());
  AccessTraits exposed;
  exposed.streamed_bytes = 1 << 20;
  AccessTraits overlapped = exposed;
  overlapped.bandwidth_overlap = 0.9;
  const double full = node.access_ns(exposed, MemOp::kRead);
  const double hidden = node.access_ns(overlapped, MemOp::kRead);
  // Only 10% of the stream remains exposed.
  EXPECT_NEAR(hidden - 238.1, (full - 238.1) * 0.1, 1e-6);
}

TEST(MemoryNode, WriteDiscountOnlyAffectsWrites) {
  MemoryNode node(fast_spec());
  AccessTraits t;
  t.streamed_bytes = 4096;
  t.write_discount = 0.5;
  const double read = node.access_ns(t, MemOp::kRead);
  const double write = node.access_ns(t, MemOp::kWrite);
  EXPECT_NEAR(write, read * 0.5, 1e-9);
}

TEST(MemoryNode, LatencySensitivityScalesLatency) {
  MemoryNode node(fast_spec());
  AccessTraits t;
  t.latency_touches = 2;
  t.latency_sensitivity = 1.5;
  EXPECT_NEAR(node.access_ns(t, MemOp::kRead), 2 * 1.5 * 65.7, 1e-9);
}

TEST(EmulationProfile, PaperFactorsMatchTableI) {
  const EmulationProfile p = paper_testbed();
  EXPECT_NEAR(p.bandwidth_factor(), 0.12, 0.005);  // B: 0.12x
  EXPECT_NEAR(p.latency_factor(), 3.62, 0.01);     // L: 3.62x
  EXPECT_EQ(p.llc_bytes, 12 * util::kMiB);
  EXPECT_EQ(p.fast.capacity_bytes, 4 * util::kGiB);
}

TEST(EmulationProfile, CapacityOverrideKeepsTiming) {
  const EmulationProfile p = paper_testbed_with_capacity(16 * util::kGiB);
  EXPECT_EQ(p.fast.capacity_bytes, 16 * util::kGiB);
  EXPECT_DOUBLE_EQ(p.fast.latency_ns, 65.7);
  EXPECT_DOUBLE_EQ(p.slow.bandwidth_gbps, 1.81);
}

TEST(EmulationProfile, OptaneProjectionIsSlowerThanDram) {
  const EmulationProfile p = optane_projection();
  EXPECT_GT(p.slow.latency_ns, p.fast.latency_ns);
  EXPECT_LT(p.slow.bandwidth_gbps, p.fast.bandwidth_gbps);
}

}  // namespace
}  // namespace mnemo::hybridmem
