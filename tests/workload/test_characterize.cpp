#include "workload/characterize.hpp"

#include <gtest/gtest.h>

#include "core/sensitivity_engine.hpp"
#include "util/bytes.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/suite.hpp"

namespace mnemo::workload {
namespace {

Trace manual_trace(std::vector<Request> reqs, std::uint64_t keys,
                   std::uint64_t size_each = 100) {
  return Trace("manual", keys, std::move(reqs),
               std::vector<std::uint64_t>(keys, size_each));
}

TEST(Characterize, BasicCountsAndRatios) {
  const Trace t = manual_trace({{0, OpType::kRead},
                                {1, OpType::kUpdate},
                                {0, OpType::kRead},
                                {1, OpType::kRead}},
                               2);
  const Characterization c = characterize(t);
  EXPECT_EQ(c.keys, 2u);
  EXPECT_EQ(c.requests, 4u);
  EXPECT_DOUBLE_EQ(c.read_fraction, 0.75);
  EXPECT_DOUBLE_EQ(c.insert_fraction, 0.0);
  EXPECT_EQ(c.cold_accesses, 2u);
  EXPECT_EQ(c.reuse_distances_bytes.size(), 2u);
}

TEST(Characterize, StackDistancesByHand) {
  // Keys sized 100 each. Sequence: A B A  -> A's reuse = B + A = 200.
  //                               A B B  -> B's reuse = B itself = 100.
  const Trace t = manual_trace({{0, OpType::kRead},
                                {1, OpType::kRead},
                                {0, OpType::kRead},
                                {1, OpType::kRead},
                                {1, OpType::kRead}},
                               2);
  const Characterization c = characterize(t);
  ASSERT_EQ(c.reuse_distances_bytes.size(), 3u);
  EXPECT_DOUBLE_EQ(c.reuse_distances_bytes[0], 200.0);  // A after B
  EXPECT_DOUBLE_EQ(c.reuse_distances_bytes[1], 200.0);  // B after A's reuse
  EXPECT_DOUBLE_EQ(c.reuse_distances_bytes[2], 100.0);  // B immediately
}

TEST(Characterize, StackDistanceUsesDistinctBytesNotRequestCount) {
  // A B B B A: A's reuse counts B once (distinct), = B + A = 200.
  const Trace t = manual_trace({{0, OpType::kRead},
                                {1, OpType::kRead},
                                {1, OpType::kRead},
                                {1, OpType::kRead},
                                {0, OpType::kRead}},
                               2);
  const Characterization c = characterize(t);
  EXPECT_DOUBLE_EQ(c.reuse_distances_bytes.back(), 200.0);
}

TEST(Characterize, PredictedHitRateStepFunction) {
  // A B A B ... : every re-access has distance 200.
  std::vector<Request> reqs;
  for (int i = 0; i < 100; ++i) {
    reqs.push_back({static_cast<std::uint32_t>(i % 2), OpType::kRead});
  }
  const Trace t = manual_trace(std::move(reqs), 2);
  const Characterization c = characterize(t);
  EXPECT_DOUBLE_EQ(c.predicted_hit_rate(199, 0), 0.0);
  EXPECT_NEAR(c.predicted_hit_rate(200, 0), 0.98, 1e-9);  // all but 2 cold
  // Bypass cap below the record size kills all hits.
  EXPECT_DOUBLE_EQ(c.predicted_hit_rate(200, 99), 0.0);
}

TEST(Characterize, SkewMetricsOrderWorkloads) {
  WorkloadSpec uniform = paper_workload("timeline");
  uniform.distribution = DistributionKind::kUniform;
  uniform.key_count = 1'000;
  uniform.request_count = 20'000;
  WorkloadSpec skewed = paper_workload("timeline");
  skewed.key_count = 1'000;
  skewed.request_count = 20'000;

  const Characterization cu = characterize(Trace::generate(uniform));
  const Characterization cs = characterize(Trace::generate(skewed));
  EXPECT_GT(cs.hot10_share, cu.hot10_share);
  EXPECT_GT(cs.hot20_share, cu.hot20_share);
  EXPECT_GT(cs.gini, cu.gini);
  EXPECT_LT(cu.gini, 0.3) << "uniform traffic is near-equal";
  EXPECT_GT(cs.gini, 0.5) << "zipfian traffic is concentrated";
  // Skewed workloads re-reference sooner: smaller median stack distance.
  EXPECT_LT(cs.reuse_p50_bytes, cu.reuse_p50_bytes);
}

TEST(Characterize, PredictsTheEmulatorsLlcHitRate) {
  // The emulator's LLC is an object-granular byte-LRU — exactly what the
  // stack-distance model describes, so prediction should match the
  // measured hit rate closely on a cache-friendly workload.
  WorkloadSpec spec = paper_workload("timeline");
  spec.record_size = RecordSizeType::kPhotoCaption;  // cacheable records
  spec.key_count = 2'000;
  spec.request_count = 20'000;
  const Trace trace = Trace::generate(spec);
  const Characterization c = characterize(trace);

  core::SensitivityConfig cfg;
  cfg.repeats = 1;
  const core::SensitivityEngine engine(cfg);
  const auto measured =
      engine
          .try_run_once(CompiledTrace(trace),
                        hybridmem::Placement(trace.key_count(),
                                             hybridmem::NodeId::kFast))
          .value();

  const auto& platform = cfg.platform;
  const auto bypass = static_cast<std::uint64_t>(
      platform.llc_bypass_fraction *
      static_cast<double>(platform.llc_bytes));
  const double predicted =
      c.predicted_hit_rate(platform.llc_bytes, bypass);
  EXPECT_NEAR(predicted, measured.llc_hit_rate, 0.05)
      << "byte-LRU stack distances model the emulator LLC";
  EXPECT_GT(measured.llc_hit_rate, 0.3) << "workload must exercise the LLC";
}

TEST(Characterize, InsertsCountAsColdAccesses) {
  WorkloadSpec spec = ycsb_d();
  spec.key_count = 300;
  spec.request_count = 5'000;
  const Trace t = Trace::generate(spec);
  const Characterization c = characterize(t);
  EXPECT_GT(c.insert_fraction, 0.02);
  EXPECT_GE(c.cold_accesses, t.total_inserts());
}

}  // namespace
}  // namespace mnemo::workload
