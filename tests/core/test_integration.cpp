// End-to-end integration: the full paper pipeline on one workload —
// generate -> profile -> estimate -> advise -> place -> validate — with
// every cross-component invariant checked in one place.

#include <gtest/gtest.h>

#include <cmath>

#include "core/mnemo.hpp"
#include "core/placement_engine.hpp"
#include "core/tail_estimator.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "workload/downsample.hpp"
#include "workload/suite.hpp"

namespace mnemo::core {
namespace {

class PipelineTest : public ::testing::TestWithParam<kvstore::StoreKind> {};

TEST_P(PipelineTest, FullPaperPipelineIsCoherent) {
  // 1. Workload descriptor (scaled-down trending).
  workload::WorkloadSpec spec = workload::paper_workload("trending");
  spec.key_count = 600;
  spec.request_count = 6'000;
  const workload::Trace trace = workload::Trace::generate(spec);

  // 2. Profile with MnemoT.
  MnemoConfig cfg;
  cfg.store = GetParam();
  cfg.repeats = 2;
  cfg.ordering = OrderingPolicy::kTiered;
  const Mnemo mnemo(cfg);
  const MnemoReport report = mnemo.profile(trace);

  // Invariants on the curve.
  ASSERT_EQ(report.curve.points.size(), trace.key_count() + 1);
  double prev_cost = -1.0;
  for (const EstimatePoint& p : report.curve.points) {
    ASSERT_GE(p.cost_factor, 0.2 - 1e-9);
    ASSERT_LE(p.cost_factor, 1.0 + 1e-9);
    ASSERT_GT(p.cost_factor, prev_cost) << "cost strictly increases";
    prev_cost = p.cost_factor;
    ASSERT_GT(p.est_throughput_ops, 0.0);
  }
  // Tiered read-only ordering: throughput non-decreasing along the curve.
  for (std::size_t i = 1; i < report.curve.points.size(); ++i) {
    ASSERT_GE(report.curve.points[i].est_throughput_ops,
              report.curve.points[i - 1].est_throughput_ops * 0.999);
  }

  // 3. The SLO choice exists and meets its contract on the estimate.
  ASSERT_TRUE(report.slo_choice.has_value());
  const SloChoice& choice = *report.slo_choice;
  EXPECT_LE(choice.slowdown_vs_fast, 0.10 + 1e-9);

  // 4. Validate the advice by executing the placement.
  const RunMeasurement validated =
      mnemo.validate(trace, report.order, choice.point);
  const double real_slowdown =
      1.0 - validated.throughput_ops / report.baselines.fast.throughput_ops;
  EXPECT_LT(real_slowdown, 0.13) << "validated slowdown near the 10% SLO";

  // 5. Tail estimates at the chosen point are in the measured ballpark.
  const TailEstimate tails = TailEstimator::estimate(
      report.pattern, report.order, choice.point.fast_keys,
      report.baselines);
  EXPECT_NEAR(tails.p95_ns / validated.p95_ns, 1.0, 0.4);
  // p99 rides on rare spike events and is noisy at this reduced request
  // count (it lands within ~5% at paper scale — see bench/fig8_accuracy);
  // only require the right ballpark here.
  EXPECT_GT(tails.p99_ns, validated.p99_ns * 0.4);
  EXPECT_LT(tails.p99_ns, validated.p99_ns * 2.5);

  // 6. Placement Engine populates real servers consistently.
  const auto placement =
      PlacementEngine::placement_for(report.order, choice.point);
  hybridmem::HybridMemory memory(hybridmem::paper_testbed_with_capacity(
      trace.dataset_bytes() * 2));
  kvstore::StoreConfig store_cfg;
  kvstore::DualServer servers(memory, cfg.store, store_cfg);
  PlacementEngine::populate(servers, trace, placement);
  EXPECT_EQ(servers.fast().record_count() + servers.slow().record_count(),
            trace.key_count());
  EXPECT_EQ(servers.fast().record_count(), choice.point.fast_keys);
  EXPECT_GE(memory.node(hybridmem::NodeId::kFast).used_bytes(),
            choice.point.fast_bytes);

  // 7. A downsampled descriptor reproduces the advice (paper §V-A).
  const workload::Trace down = workload::downsample(trace, 0.25, 99);
  const MnemoReport down_report = mnemo.profile(down);
  ASSERT_TRUE(down_report.slo_choice.has_value());
  EXPECT_NEAR(down_report.slo_choice->cost_factor, choice.cost_factor, 0.12);
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, PipelineTest,
    ::testing::Values(kvstore::StoreKind::kVermilion,
                      kvstore::StoreKind::kCachet,
                      kvstore::StoreKind::kDynaStore),
    [](const auto& info) {
      return std::string(kvstore::to_string(info.param));
    });

}  // namespace
}  // namespace mnemo::core
