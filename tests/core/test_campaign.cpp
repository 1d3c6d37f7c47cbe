// Determinism contract of the campaign runner (labelled `concurrency`,
// run these under -DMNEMO_TSAN=ON): fanning the {placement × repeat}
// measurement grid across ANY number of worker threads must merge to
// results bit-identical to the serial SensitivityEngine path — the
// property that lets every sweep in this repository parallelize freely
// without perturbing a single published number.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/estimate_engine.hpp"
#include "core/pattern_engine.hpp"
#include "stats/log_histogram.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

workload::Trace zipfian_trace() {
  workload::WorkloadSpec spec;
  spec.name = "campaign_zipf";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 250;
  spec.request_count = 2'500;
  spec.seed = 0xc0ffee;
  return workload::Trace::generate(spec);
}

/// The pre-campaign serial path: try_run_once per repeat, averaged in repeat
/// order. This is the reference the runner must reproduce bit-for-bit.
RunMeasurement serial_measure(const SensitivityEngine& engine,
                              const workload::Trace& trace,
                              const hybridmem::Placement& placement) {
  const workload::CompiledTrace compiled(trace);
  std::vector<RunMeasurement> runs;
  for (int r = 0; r < engine.config().repeats; ++r) {
    runs.push_back(engine.try_run_once(compiled, placement, r).value());
  }
  return average_runs(runs);
}

void expect_bit_identical(const RunMeasurement& a, const RunMeasurement& b) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.throughput_ops, b.throughput_ops);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.avg_read_ns, b.avg_read_ns);
  EXPECT_EQ(a.avg_write_ns, b.avg_write_ns);
  EXPECT_EQ(a.p95_ns, b.p95_ns);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.llc_hit_rate, b.llc_hit_rate);
  EXPECT_EQ(a.read_vs_bytes.intercept, b.read_vs_bytes.intercept);
  EXPECT_EQ(a.read_vs_bytes.slope, b.read_vs_bytes.slope);
  EXPECT_EQ(a.write_vs_bytes.intercept, b.write_vs_bytes.intercept);
  EXPECT_EQ(a.write_vs_bytes.slope, b.write_vs_bytes.slope);
  ASSERT_EQ(a.latency_hist.count(), b.latency_hist.count());
  for (std::size_t i = 0; i < stats::LogHistogram::kBuckets; ++i) {
    ASSERT_EQ(a.latency_hist.bucket(i), b.latency_hist.bucket(i));
  }
}

/// Param = campaign worker threads; 0 resolves to hardware concurrency.
class CampaignDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CampaignDeterminism, BaselinesMatchSerialEngineBitForBit) {
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 3;
  cfg.threads = GetParam();
  const SensitivityEngine engine(cfg);

  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);
  const hybridmem::Placement all_slow(trace.key_count(),
                                      hybridmem::NodeId::kSlow);
  const RunMeasurement ref_fast = serial_measure(engine, trace, all_fast);
  const RunMeasurement ref_slow = serial_measure(engine, trace, all_slow);

  const PerfBaselines parallel = engine.baselines(trace);
  expect_bit_identical(parallel.fast, ref_fast);
  expect_bit_identical(parallel.slow, ref_slow);
}

TEST_P(CampaignDeterminism, GridMergesInCellOrderAtAnyThreadCount) {
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);

  // A mixed grid: several prefix placements of the touch order.
  const AccessPattern pattern = PatternEngine::analyze(trace);
  std::vector<hybridmem::Placement> placements;
  for (const std::uint64_t prefix :
       {std::uint64_t{0}, trace.key_count() / 4, trace.key_count() / 2,
        trace.key_count()}) {
    placements.push_back(hybridmem::Placement::from_order(
        pattern.touch_order, static_cast<std::size_t>(prefix)));
  }

  CampaignRunner runner(GetParam());
  const std::vector<RunMeasurement> merged =
      runner.measure_grid(engine, trace, placements);

  ASSERT_EQ(merged.size(), placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    expect_bit_identical(merged[i],
                         serial_measure(engine, trace, placements[i]));
  }
  EXPECT_EQ(runner.stats().cells, placements.size() * 2);
}

TEST_P(CampaignDeterminism, DerivedEstimateCurveIsBitIdentical) {
  const workload::Trace trace = zipfian_trace();
  const AccessPattern pattern = PatternEngine::analyze(trace);

  SensitivityConfig serial_cfg;
  serial_cfg.repeats = 2;
  serial_cfg.threads = 1;
  SensitivityConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = GetParam();

  const SensitivityEngine serial(serial_cfg);
  const SensitivityEngine parallel(parallel_cfg);
  const PerfBaselines serial_base = serial.baselines(trace);
  const PerfBaselines parallel_base = parallel.baselines(trace);

  const EstimateEngine estimator;
  const EstimateCurve a =
      estimator.estimate(pattern, pattern.touch_order, serial_base);
  const EstimateCurve b =
      estimator.estimate(pattern, pattern.touch_order, parallel_base);

  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    ASSERT_EQ(a.points[i].last_key, b.points[i].last_key);
    ASSERT_EQ(a.points[i].fast_keys, b.points[i].fast_keys);
    ASSERT_EQ(a.points[i].fast_bytes, b.points[i].fast_bytes);
    ASSERT_EQ(a.points[i].est_runtime_ns, b.points[i].est_runtime_ns);
    ASSERT_EQ(a.points[i].est_throughput_ops, b.points[i].est_throughput_ops);
    ASSERT_EQ(a.points[i].est_avg_latency_ns, b.points[i].est_avg_latency_ns);
    ASSERT_EQ(a.points[i].cost_factor, b.points[i].cost_factor);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CampaignDeterminism,
                         ::testing::Values<std::size_t>(1, 2, 4, 0),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("hardware")
                                      : std::to_string(info.param);
                         });

TEST(CampaignRunner, EmptyCampaignIsANoop) {
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  CampaignRunner runner(4);
  EXPECT_TRUE(runner.run(engine, trace, {}).empty());
  EXPECT_EQ(runner.stats().cells, 0u);
  EXPECT_EQ(runner.stats().cpu_s, 0.0);
}

TEST(CampaignRunner, CellsCarryTheirOwnSeedShift) {
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);

  CampaignRunner runner(2);
  const std::vector<RunMeasurement> out =
      runner.run(engine, trace, {{all_fast, 0}, {all_fast, 1}, {all_fast, 0}});
  ASSERT_EQ(out.size(), 3u);
  // Same cell twice -> same bits; different repeat -> different jitter.
  expect_bit_identical(out[0], out[2]);
  EXPECT_NE(out[0].runtime_ns, out[1].runtime_ns);
}

TEST(CampaignStats, AccountsForEveryCell) {
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);
  const hybridmem::Placement all_slow(trace.key_count(),
                                      hybridmem::NodeId::kSlow);

  CampaignRunner runner(2);
  (void)runner.measure_grid(engine, trace, {all_slow, all_slow, all_slow});
  const CampaignStats& s = runner.stats();
  EXPECT_EQ(s.cells, 6u);
  EXPECT_EQ(s.threads, 2u);
  EXPECT_GT(s.wall_s, 0.0);
  EXPECT_GT(s.cpu_s, 0.0);
  EXPECT_GT(s.cell_p50_s, 0.0);
  EXPECT_LE(s.cell_p50_s, s.cell_p95_s);
  EXPECT_GT(s.speedup(), 0.0);
  EXPECT_GT(s.occupancy(), 0.0);
  const std::string table = s.render("campaign");
  EXPECT_NE(table.find("cells run"), std::string::npos);
  EXPECT_NE(table.find("speedup vs serial"), std::string::npos);
}

TEST(CampaignStats, TotalsAggregateAcrossCampaigns) {
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);

  reset_campaign_totals();
  CampaignRunner runner(1);
  (void)runner.run(engine, trace, {{all_fast, 0}});
  (void)runner.run(engine, trace, {{all_fast, 0}, {all_fast, 1}});
  const CampaignStats totals = campaign_totals();
  EXPECT_EQ(totals.cells, 3u);
  EXPECT_GT(totals.wall_s, 0.0);
  EXPECT_GT(totals.cpu_s, 0.0);
  reset_campaign_totals();
  EXPECT_EQ(campaign_totals().cells, 0u);
}

TEST(CampaignStats, TotalsCountEveryCellAndBucketItsPercentiles) {
  // 21 cells: rank q·(n − 1) is a whole number for q = 0.50 and 0.95, so
  // the runner's exact percentiles are single cell durations, and the
  // totals' histogram quantile lands in that cell's bucket or at its upper
  // edge.
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  const hybridmem::Placement all_slow(trace.key_count(),
                                      hybridmem::NodeId::kSlow);
  std::vector<CampaignCell> cells;
  for (int r = 0; r < 21; ++r) cells.push_back({all_slow, r});

  reset_campaign_totals();
  CampaignRunner runner(2);
  (void)runner.run(engine, trace, cells);
  const CampaignStats totals = campaign_totals();
  const CampaignStats& exact = runner.stats();
  EXPECT_EQ(totals.cells, 21u);
  const auto bucket = [](double s) {
    return static_cast<long>(stats::LogHistogram::bucket_index(s * 1e9));
  };
  EXPECT_LE(std::abs(bucket(totals.cell_p50_s) - bucket(exact.cell_p50_s)),
            1L);
  EXPECT_LE(std::abs(bucket(totals.cell_p95_s) - bucket(exact.cell_p95_s)),
            1L);
  EXPECT_DOUBLE_EQ(totals.cpu_s, exact.cpu_s);
  reset_campaign_totals();
}

TEST(CampaignRunner, FailingCellsThrowATypedErrorNamingTheCell) {
  // An empty trace fails every cell. run() and measure_grid() promise one
  // measurement per cell or placement, so they throw the first
  // quarantined cell instead of returning.
  const workload::Trace empty("empty", 4, {},
                              std::vector<std::uint64_t>(4, 64));
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);
  const hybridmem::Placement all_fast(4, hybridmem::NodeId::kFast);
  const hybridmem::Placement all_slow(4, hybridmem::NodeId::kSlow);
  for (const std::size_t threads : {1, 2}) {
    CampaignRunner runner(threads);
    try {
      (void)runner.run(engine, empty, {{all_slow, 1}, {all_fast, 0}});
      FAIL() << "run() returned measurements of failed cells";
    } catch (const CellQuarantinedError& e) {
      EXPECT_EQ(e.failure().cell, 0u);
      EXPECT_EQ(e.failure().repeat, 1);
      EXPECT_EQ(e.failure().attempts, 2);
      EXPECT_EQ(e.failure().error.code, util::ErrorCode::kInvalidArgument);
      EXPECT_NE(std::string(e.what()).find("cell #0 (fast keys 0, repeat 1)"),
                std::string::npos)
          << e.what();
    }
    try {
      (void)runner.measure_grid(engine, empty, {all_fast, all_slow});
      FAIL() << "measure_grid() returned measurements of failed cells";
    } catch (const CellQuarantinedError& e) {
      EXPECT_EQ(e.failure().cell, 0u);
      EXPECT_EQ(e.failure().fast_keys, 4u);
      EXPECT_NE(std::string(e.what()).find("cell #0 (fast keys 4, repeat 0)"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace mnemo::core
