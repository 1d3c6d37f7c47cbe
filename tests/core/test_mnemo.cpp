#include "core/mnemo.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>
#include <set>

#include "core/render.hpp"
#include "util/csv.hpp"
#include "workload/suite.hpp"

namespace mnemo::core {
namespace {

workload::Trace small_trace(std::string_view name = "trending") {
  workload::WorkloadSpec spec = workload::paper_workload(name);
  spec.key_count = 500;
  spec.request_count = 5'000;
  return workload::Trace::generate(spec);
}

MnemoConfig quick_config() {
  MnemoConfig cfg;
  cfg.repeats = 1;
  return cfg;
}

/// MnemoT: the facade with the key-value-store-optimized ordering.
MnemoConfig tiered_config() {
  MnemoConfig cfg = quick_config();
  cfg.ordering = OrderingPolicy::kTiered;
  return cfg;
}

TEST(Mnemo, ProfileProducesCompleteReport) {
  const Mnemo mnemo(quick_config());
  const auto trace = small_trace();
  const MnemoReport report = mnemo.profile(trace);
  EXPECT_EQ(report.workload, "trending");
  EXPECT_EQ(report.ordering, OrderingPolicy::kTouchOrder);
  EXPECT_EQ(report.order.size(), trace.key_count());
  EXPECT_EQ(report.curve.points.size(), trace.key_count() + 1);
  ASSERT_TRUE(report.slo_choice.has_value());
  EXPECT_GE(report.slo_choice->cost_factor, 0.2);
  EXPECT_LE(report.slo_choice->cost_factor, 1.0);
}

TEST(Mnemo, CurveEndpointsBracketBaselines) {
  const Mnemo mnemo(quick_config());
  const MnemoReport report = mnemo.profile(small_trace());
  EXPECT_NEAR(report.curve.points.front().est_throughput_ops,
              report.baselines.slow.throughput_ops,
              report.baselines.slow.throughput_ops * 1e-6);
  EXPECT_NEAR(report.curve.points.back().est_throughput_ops,
              report.baselines.fast.throughput_ops,
              report.baselines.fast.throughput_ops * 0.02);
}

TEST(Mnemo, EstimateTracksMeasurementWithinOnePercent) {
  const Mnemo mnemo(quick_config());
  const auto trace = small_trace("timeline");
  const MnemoReport report = mnemo.profile(trace);
  for (const double frac : {0.25, 0.5, 0.75}) {
    const auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(report.curve.points.size() - 1));
    const EstimatePoint& p = report.curve.points[idx];
    const RunMeasurement measured = mnemo.validate(trace, report.order, p);
    const double err =
        estimate_error_pct(measured.throughput_ops, p.est_throughput_ops);
    EXPECT_LT(std::abs(err), 1.0) << "frac=" << frac;
  }
}

TEST(MnemoT, UsesTieredOrdering) {
  const Mnemo mnemot(tiered_config());
  const MnemoReport report = mnemot.profile(small_trace());
  EXPECT_EQ(report.ordering, OrderingPolicy::kTiered);
  std::set<std::uint64_t> unique(report.order.begin(), report.order.end());
  EXPECT_EQ(unique.size(), report.order.size());
}

TEST(MnemoT, TieredOrderingIsAtLeastAsCostEfficient) {
  // MnemoT prioritizes hot keys: at the same SLO its sweet spot can only
  // be cheaper or equal vs first-touch ordering.
  const auto trace = small_trace("timeline");
  const Mnemo standalone(quick_config());
  const Mnemo tiered(tiered_config());
  const auto rep_a = standalone.profile(trace);
  const auto rep_t = tiered.profile(trace);
  ASSERT_TRUE(rep_a.slo_choice && rep_t.slo_choice);
  EXPECT_LE(rep_t.slo_choice->cost_factor,
            rep_a.slo_choice->cost_factor + 0.02);
}

TEST(Mnemo, ExternalOrderingScenario) {
  const Mnemo mnemo(quick_config());
  const auto trace = small_trace();
  std::vector<std::uint64_t> reversed(trace.key_count());
  std::iota(reversed.begin(), reversed.end(), 0);
  std::reverse(reversed.begin(), reversed.end());
  const MnemoReport report = mnemo.profile_with_order(trace, reversed);
  EXPECT_EQ(report.ordering, OrderingPolicy::kExternal);
  EXPECT_EQ(report.order, reversed);
}

TEST(Mnemo, CsvArtifactHasPaperColumns) {
  const Mnemo mnemo(quick_config());
  const auto trace = small_trace();
  const MnemoReport report = mnemo.profile(trace);
  const std::string path = ::testing::TempDir() + "/mnemo_report.csv";
  report.write_csv(path);
  const auto rows = util::csv::read_file(path);
  ASSERT_EQ(rows.size(), trace.key_count() + 1);  // header + one per key
  EXPECT_EQ(rows[0][0], "key_id");
  EXPECT_EQ(rows[0][1], "est_throughput_ops");
  EXPECT_EQ(rows[0][2], "cost_reduction_factor");
  // Cost column climbs from near the floor to 1.0.
  EXPECT_LT(std::stod(rows[1][2]), 0.35);
  EXPECT_NEAR(std::stod(rows.back()[2]), 1.0, 1e-6);
  std::filesystem::remove(path);
}

TEST(Mnemo, CurveCsvFormatsLikePrintfOnEdgeValues) {
  // render_curve_csv formats with std::to_chars(general, 10 / 6), which
  // the standard specifies to match printf("%.*g"): the byte format the
  // CSV has always had. Row 0 (the SlowMem-only bound) is not rendered.
  const std::vector<double> values = {
      0.0, -0.0, 1.0, 42.0, 123456.0, 1234567.0, 1e9, 9999999999.0,
      99999999995.0, 999999.5, 0.0001, 0.00001, 1.0 / 3.0, 2.0 / 3.0, 0.1,
      123.456789012345, 1e-300, 5e-324, 1e21, 1.7976931348623157e308};
  EstimateCurve curve;
  curve.points.resize(1);
  std::string expected = "key_id,est_throughput_ops,cost_reduction_factor\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    EstimatePoint p;
    p.last_key = i == 0 ? std::numeric_limits<std::uint64_t>::max() : i;
    p.est_throughput_ops = values[i];
    p.cost_factor = values[values.size() - 1 - i];
    curve.points.push_back(p);
    char row[128];
    std::snprintf(row, sizeof row, "%llu,%.*g,%.*g\n",
                  static_cast<unsigned long long>(p.last_key), 10,
                  p.est_throughput_ops, 6, p.cost_factor);
    expected += row;
  }
  EXPECT_EQ(render_curve_csv(curve), expected);
}

TEST(Mnemo, SloChoiceRespectsTolerance) {
  MnemoConfig cfg = quick_config();
  cfg.slo_slowdown = 0.05;
  const Mnemo strict(cfg);
  cfg.slo_slowdown = 0.30;
  const Mnemo loose(cfg);
  const auto trace = small_trace();
  const auto strict_choice = strict.profile(trace).slo_choice;
  const auto loose_choice = loose.profile(trace).slo_choice;
  ASSERT_TRUE(strict_choice && loose_choice);
  EXPECT_GE(strict_choice->cost_factor, loose_choice->cost_factor);
}

TEST(Mnemo, SizeAwareModelBeatsUniformOnMixedSizesUnderTiering) {
  // MnemoT's accesses/size ordering correlates the FastMem prefix with
  // record size; on the mixed-size preview workload the uniform-delta
  // model systematically over-promises. The size-aware model must be
  // closer to the validated measurement at the mid-curve.
  workload::WorkloadSpec spec = workload::paper_workload("trending_preview");
  spec.key_count = 800;
  spec.request_count = 8'000;
  const workload::Trace trace = workload::Trace::generate(spec);

  MnemoConfig cfg = quick_config();
  cfg.ordering = OrderingPolicy::kTiered;
  cfg.estimate_model = EstimateModel::kUniformDelta;
  const Mnemo uniform(cfg);
  cfg.estimate_model = EstimateModel::kSizeAware;
  const Mnemo aware(cfg);

  const auto rep_u = uniform.profile(trace);
  const auto rep_a = aware.profile(trace);

  double worst_u = 0.0;
  double worst_a = 0.0;
  for (const double frac : {0.1, 0.25, 0.5}) {
    const auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(rep_u.curve.points.size() - 1));
    const auto mu = uniform.validate(trace, rep_u.order,
                                     rep_u.curve.points[idx]);
    const auto ma =
        aware.validate(trace, rep_a.order, rep_a.curve.points[idx]);
    worst_u = std::max(worst_u,
                       std::abs(estimate_error_pct(
                           mu.throughput_ops,
                           rep_u.curve.points[idx].est_throughput_ops)));
    worst_a = std::max(worst_a,
                       std::abs(estimate_error_pct(
                           ma.throughput_ops,
                           rep_a.curve.points[idx].est_throughput_ops)));
  }
  EXPECT_LT(worst_a, worst_u);
}

TEST(Mnemo, OrderingPolicyNames) {
  EXPECT_EQ(to_string(OrderingPolicy::kTouchOrder), "touch_order");
  EXPECT_EQ(to_string(OrderingPolicy::kTiered), "tiered");
  EXPECT_EQ(to_string(OrderingPolicy::kExternal), "external");
}

}  // namespace
}  // namespace mnemo::core
