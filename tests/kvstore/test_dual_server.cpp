#include "kvstore/dual_server.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "faultinject/fault_plan.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/suite.hpp"

namespace mnemo::kvstore {
namespace {

using hybridmem::NodeId;
using hybridmem::Placement;

workload::Trace small_trace(double read_fraction = 1.0) {
  workload::WorkloadSpec spec;
  spec.name = "dual";
  spec.distribution = workload::DistributionKind::kUniform;
  spec.read_fraction = read_fraction;
  spec.record_size = workload::RecordSizeType::kPhotoCaption;
  spec.key_count = 200;
  spec.request_count = 2'000;
  spec.seed = 3;
  return workload::Trace::generate(spec);
}

StoreConfig quiet_config() {
  StoreConfig cfg;
  cfg.deterministic_service = true;
  return cfg;
}

/// Serve one (op, key) with the key's compiled hints.
util::Result<OpResult> serve(DualServer& servers,
                             const workload::CompiledTrace& compiled,
                             workload::OpType op, std::uint64_t key) {
  return servers.execute(op, key, {compiled.key_hash(key)});
}

/// Serve request `i` of the compiled trace.
util::Result<OpResult> serve(DualServer& servers,
                             const workload::CompiledTrace& compiled,
                             std::size_t i) {
  return serve(servers, compiled, compiled.ops()[i], compiled.keys()[i]);
}

class DualServerTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  hybridmem::HybridMemory memory_{hybridmem::paper_testbed_with_capacity(
      64ULL * 1024 * 1024)};
};

TEST_P(DualServerTest, PopulateSplitsDatasetByPlacement) {
  DualServer servers(memory_, GetParam(), quiet_config());
  const auto trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  std::vector<std::uint64_t> order(trace.key_count());
  std::iota(order.begin(), order.end(), 0);
  const Placement placement = Placement::from_order(order, 50);
  ASSERT_TRUE(servers.populate(compiled, placement).ok());
  EXPECT_EQ(servers.fast().record_count(), 50u);
  EXPECT_EQ(servers.slow().record_count(), 150u);
  EXPECT_EQ(servers.fast().node(), NodeId::kFast);
  EXPECT_EQ(servers.slow().node(), NodeId::kSlow);
}

TEST_P(DualServerTest, ExecuteRoutesByKeyPlacement) {
  DualServer servers(memory_, GetParam(), quiet_config());
  const auto trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  Placement placement(trace.key_count(), NodeId::kSlow);
  placement.set(7, NodeId::kFast);
  ASSERT_TRUE(servers.populate(compiled, placement).ok());

  // Each key lives on one instance only, so a read hits only if it was
  // routed there.
  EXPECT_FALSE(servers.slow().get(7).ok);
  EXPECT_FALSE(servers.fast().get(8).ok);
  const util::Result<OpResult> fast_read =
      serve(servers, compiled, workload::OpType::kRead, 7);
  ASSERT_TRUE(fast_read.ok());
  EXPECT_TRUE(fast_read.value().ok);
  const util::Result<OpResult> slow_read =
      serve(servers, compiled, workload::OpType::kRead, 8);
  ASSERT_TRUE(slow_read.ok());
  EXPECT_TRUE(slow_read.value().ok);
}

TEST_P(DualServerTest, UpdatesStayOnAssignedServer) {
  DualServer servers(memory_, GetParam(), quiet_config());
  const auto trace = small_trace(0.0);  // all updates
  const workload::CompiledTrace compiled(trace);
  Placement placement(trace.key_count(), NodeId::kSlow);
  ASSERT_TRUE(servers.populate(compiled, placement).ok());
  for (std::size_t i = 0; i < compiled.request_count(); ++i) {
    ASSERT_TRUE(serve(servers, compiled, i).value().ok);
  }
  EXPECT_EQ(servers.fast().record_count(), 0u);
  EXPECT_EQ(servers.slow().record_count(), trace.key_count());
}

TEST_P(DualServerTest, AllRequestsSucceedAfterPopulate) {
  DualServer servers(memory_, GetParam(), quiet_config());
  const auto trace = small_trace(0.5);
  const workload::CompiledTrace compiled(trace);
  Placement placement(trace.key_count(), NodeId::kFast);
  ASSERT_TRUE(servers.populate(compiled, placement).ok());
  for (std::size_t i = 0; i < compiled.request_count(); ++i) {
    ASSERT_TRUE(serve(servers, compiled, i).value().ok);
  }
}

TEST_P(DualServerTest, PopulateErrorCarriesKeyAndCapacity) {
  // A platform whose SlowMem cannot hold the whole dataset: the typed
  // error must name the first key that did not fit and the node's
  // remaining capacity at that point.
  hybridmem::EmulationProfile tiny = hybridmem::paper_testbed_with_capacity(
      64ULL * 1024 * 1024);
  tiny.slow.capacity_bytes = 4 * 1024;
  hybridmem::HybridMemory memory(tiny);
  DualServer servers(memory, GetParam(), quiet_config());
  const auto trace = small_trace();
  const util::Status st = servers.populate(
      workload::CompiledTrace(trace),
      Placement(trace.key_count(), NodeId::kSlow));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, util::ErrorCode::kCapacityExhausted);
  EXPECT_NE(st.error().key, util::Error::kNoKey);
  EXPECT_EQ(st.error().requested_bytes, trace.size_of(st.error().key));
  EXPECT_LT(st.error().available_bytes, tiny.slow.capacity_bytes);
  EXPECT_NE(st.error().to_string().find("capacity_exhausted"),
            std::string::npos);
}

TEST_P(DualServerTest, ExecuteWriteThatDoesNotFitIsATypedError) {
  // Key 0 is loaded; key 1 arrives by insert and is bigger than SlowMem.
  hybridmem::EmulationProfile tiny = hybridmem::paper_testbed_with_capacity(
      64ULL * 1024 * 1024);
  tiny.slow.capacity_bytes = 4ULL * 1024 * 1024;
  hybridmem::HybridMemory memory(tiny);
  DualServer servers(memory, GetParam(), quiet_config());
  const workload::Trace trace(
      "insert_overflow", 2,
      {{0, workload::OpType::kRead}, {1, workload::OpType::kInsert}},
      {1024, 8ULL * 1024 * 1024}, /*initial_key_count=*/1);
  const workload::CompiledTrace compiled(trace);
  ASSERT_TRUE(
      servers.populate(compiled, Placement(trace.key_count(), NodeId::kSlow))
          .ok());
  ASSERT_TRUE(serve(servers, compiled, 0).value().ok);

  const util::Result<OpResult> r = serve(servers, compiled, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::ErrorCode::kCapacityExhausted);
  EXPECT_EQ(r.error().key, 1u);
  EXPECT_EQ(r.error().requested_bytes, trace.size_of(1));
  EXPECT_LT(r.error().available_bytes, tiny.slow.capacity_bytes);
  EXPECT_NE(r.error().message.find("SlowMem"), std::string::npos)
      << r.error().message;
  EXPECT_EQ(servers.slow().record_count(), 1u) << "the store is as it was";
}

TEST_P(DualServerTest, MoveKeyRetriesTransientFaultsWithBackoff) {
  // transient rate 1.0 with recover 1.0: the migration read faults every
  // draw but always recovers on the first retry — move_key succeeds and
  // its cost includes the retry and backoff surcharge.
  faultinject::FaultPlan plan;
  plan.transient_read_rate = 1.0;
  plan.transient_recover_prob = 1.0;
  memory_.arm_faults(plan, 7);
  DualServer servers(memory_, GetParam(), quiet_config());
  const auto trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  ASSERT_TRUE(
      servers.populate(compiled, Placement(trace.key_count(), NodeId::kSlow))
          .ok());
  memory_.drop_caches();  // faults fire on LLC misses only
  const auto before = memory_.fault_stats();
  const util::Result<double> moved = servers.move_key(5, NodeId::kFast);
  ASSERT_TRUE(moved.ok());
  EXPECT_GT(moved.value(), 0.0);
  EXPECT_EQ(servers.placement().node_of(5), NodeId::kFast);
  EXPECT_GT(memory_.fault_stats().transient_retries,
            before.transient_retries);
}

TEST_P(DualServerTest, MoveKeyExhaustsRetriesIntoTypedError) {
  // recover 0.0: every migration read fails its whole retry budget, so the
  // bounded outer retry loop gives up with kRetriesExhausted and the key
  // stays on SlowMem.
  faultinject::FaultPlan plan;
  plan.transient_read_rate = 1.0;
  plan.transient_recover_prob = 0.0;
  plan.transient_max_retries = 2;
  memory_.arm_faults(plan, 7);
  DualServer servers(memory_, GetParam(), quiet_config());
  const auto trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  ASSERT_TRUE(
      servers.populate(compiled, Placement(trace.key_count(), NodeId::kSlow))
          .ok());
  memory_.drop_caches();  // faults fire on LLC misses only
  const util::Result<double> moved = servers.move_key(5, NodeId::kFast);
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.error().code, util::ErrorCode::kRetriesExhausted);
  EXPECT_EQ(moved.error().key, 5u);
  EXPECT_GT(moved.error().attempts, plan.transient_max_retries);
  EXPECT_EQ(servers.placement().node_of(5), NodeId::kSlow);
}

TEST_P(DualServerTest, PoisonedReadRemapsKeyToFastMem) {
  // poison rate 1.0: every SlowMem key is poisoned, so the first read
  // forces a remap to FastMem and succeeds with the fault recorded.
  faultinject::FaultPlan plan;
  plan.poison_rate = 1.0;
  memory_.arm_faults(plan, 11);
  DualServer servers(memory_, GetParam(), quiet_config());
  const auto trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  ASSERT_TRUE(
      servers.populate(compiled, Placement(trace.key_count(), NodeId::kSlow))
          .ok());
  memory_.drop_caches();  // faults fire on LLC misses only
  const util::Result<OpResult> r =
      serve(servers, compiled, workload::OpType::kRead, 9);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().ok);
  EXPECT_EQ(r.value().fault, hybridmem::FaultKind::kPoisoned);
  EXPECT_EQ(servers.placement().node_of(9), NodeId::kFast);
  EXPECT_GT(memory_.fault_stats().poison_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, DualServerTest,
    ::testing::Values(StoreKind::kVermilion, StoreKind::kCachet,
                      StoreKind::kDynaStore),
    [](const auto& info) { return std::string(to_string(info.param)); });

}  // namespace
}  // namespace mnemo::kvstore
