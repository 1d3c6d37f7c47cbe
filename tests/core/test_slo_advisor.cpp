#include "core/slo_advisor.hpp"

#include <gtest/gtest.h>

namespace mnemo::core {
namespace {

/// A hand-built curve: throughput rises from 500 to 1000 ops/s while cost
/// rises from 0.2 to 1.0, both linearly over 11 points.
struct Fixture {
  EstimateCurve curve;
  PerfBaselines baselines;

  Fixture() {
    baselines.fast.throughput_ops = 1000.0;
    baselines.slow.throughput_ops = 500.0;
    for (int i = 0; i <= 10; ++i) {
      EstimatePoint p;
      p.fast_keys = static_cast<std::size_t>(i);
      p.fast_bytes = static_cast<std::uint64_t>(i) * 100;
      p.est_throughput_ops = 500.0 + 50.0 * i;
      p.cost_factor = 0.2 + 0.08 * i;
      curve.points.push_back(p);
    }
  }
};

TEST(SloAdvisor, PicksCheapestPointMeetingSlo) {
  const Fixture f;
  const SloAdvisor advisor(0.10);  // floor: 900 ops/s
  const auto choice = advisor.advise(f.curve, f.baselines).choice;
  ASSERT_TRUE(choice.has_value());
  // First point with >= 900 ops/s is i=8 (900 exactly).
  EXPECT_EQ(choice->point.fast_keys, 8u);
  EXPECT_NEAR(choice->cost_factor, 0.2 + 0.08 * 8, 1e-12);
  EXPECT_NEAR(choice->slowdown_vs_fast, 0.10, 1e-12);
  EXPECT_NEAR(choice->savings_vs_fast, 1.0 - choice->cost_factor, 1e-12);
}

TEST(SloAdvisor, ZeroToleranceRequiresFullThroughput) {
  const Fixture f;
  const SloAdvisor advisor(0.0);
  const auto choice = advisor.advise(f.curve, f.baselines).choice;
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->point.fast_keys, 10u);
  EXPECT_DOUBLE_EQ(choice->cost_factor, 1.0);
}

TEST(SloAdvisor, LooseToleranceReachesTheFloor) {
  const Fixture f;
  const SloAdvisor advisor(0.55);  // floor 450 < slow-only 500
  const auto choice = advisor.advise(f.curve, f.baselines).choice;
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->point.fast_keys, 0u);
  EXPECT_DOUBLE_EQ(choice->cost_factor, 0.2);
  EXPECT_NEAR(choice->savings_vs_fast, 0.8, 1e-12);
}

TEST(SloAdvisor, UnreachableSloReturnsNullopt) {
  Fixture f;
  // Demand more than any point offers.
  f.baselines.fast.throughput_ops = 5000.0;
  const SloAdvisor advisor(0.01);
  EXPECT_FALSE(advisor.advise(f.curve, f.baselines).choice.has_value());
}

TEST(SloAdvisor, NonMonotoneCurveStillFindsGlobalCheapest)  {
  // A curve where a later (more expensive) point dips below the SLO but an
  // earlier cheap point satisfies it: the advisor scans all points.
  Fixture f;
  f.curve.points[9].est_throughput_ops = 400.0;  // dip
  const SloAdvisor advisor(0.10);
  const auto choice = advisor.advise(f.curve, f.baselines).choice;
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->point.fast_keys, 8u);
}

TEST(SloAdvisor, DefaultIsPaperTenPercent) {
  const SloAdvisor advisor;
  EXPECT_DOUBLE_EQ(advisor.permissible_slowdown(), 0.10);
}

TEST(SloAdvisor, UnreachableSloIsAnExplicitNoFeasibleSplit) {
  Fixture f;
  f.baselines.fast.throughput_ops = 5000.0;  // no point can satisfy this
  const SloAdvisor advisor(0.01);
  const SloResult result = advisor.advise(f.curve, f.baselines);
  EXPECT_EQ(result.outcome, SloOutcome::kNoFeasibleSplit);
  EXPECT_FALSE(result.feasible());
  EXPECT_FALSE(result.choice.has_value());
  EXPECT_EQ(to_string(result.outcome), "no_feasible_split");
}

TEST(SloAdvisor, SloTighterThanFastMemOnlyIsNoFeasibleSplit) {
  // A negative permissible slowdown demands throughput above the measured
  // FastMem-only baseline — tighter than the best the platform can do.
  const Fixture f;
  const SloAdvisor advisor(-0.05);  // floor: 1050 > fast baseline 1000
  const SloResult result = advisor.advise(f.curve, f.baselines);
  EXPECT_EQ(result.outcome, SloOutcome::kNoFeasibleSplit);
  EXPECT_FALSE(result.choice.has_value());
}

TEST(SloAdvisor, SloMetAtZeroFastMemPicksTheEmptySplit) {
  // When even the SlowMem-only configuration satisfies the SLO, the
  // verdict is the 0-key split: all data in SlowMem, maximum savings.
  const Fixture f;
  const SloAdvisor advisor(0.55);  // floor 450 <= slow-only 500
  const SloResult result = advisor.advise(f.curve, f.baselines);
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.choice->point.fast_keys, 0u);
  EXPECT_EQ(result.choice->point.fast_bytes, 0u);
  EXPECT_DOUBLE_EQ(result.choice->cost_factor, 0.2);
}

TEST(SloAdvisor, CostTiesBreakTowardTheSmallerFastMemFootprint) {
  // Two SLO-satisfying points with identical cost but different FastMem
  // footprints: the advisor must pick the cheaper-to-provision one.
  Fixture f;
  f.curve.points[9].cost_factor = f.curve.points[8].cost_factor;
  const SloAdvisor advisor(0.10);  // floor 900: points 8, 9, 10 qualify
  const SloResult result = advisor.advise(f.curve, f.baselines);
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.choice->point.fast_keys, 8u);
  EXPECT_LT(result.choice->point.fast_bytes,
            f.curve.points[9].fast_bytes);
}

}  // namespace
}  // namespace mnemo::core
