// Degraded-mode campaign contract (labelled `faults` + `concurrency`):
// under a nonempty fault plan the checked runner must (a) quarantine
// exactly the cells that could not produce a fault-free measurement,
// (b) keep every accepted measurement bit-identical to the fault-free
// campaign's, and (c) produce the same measurements AND the same failure
// ledger at any thread count. These are the properties that make partial
// results from a faulty platform trustworthy at all.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/mnemo.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

workload::Trace zipfian_trace() {
  workload::WorkloadSpec spec;
  spec.name = "fault_zipf";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 250;
  spec.request_count = 2'500;
  spec.seed = 0xc0ffee;
  return workload::Trace::generate(spec);
}

/// A plan that deterministically splits the extreme placements: with 20 %
/// of SlowMem lines poisoned, an all-SlowMem deployment cannot avoid
/// poison hits on either attempt (the trace touches ~all 250 keys), while
/// an all-FastMem deployment never consults the injector and stays clean.
faultinject::FaultPlan poison_plan() {
  faultinject::FaultPlan plan;
  plan.poison_rate = 0.2;
  return plan;
}

SensitivityConfig faulty_config(const faultinject::FaultPlan& plan) {
  SensitivityConfig cfg;
  cfg.repeats = 2;
  cfg.faults = plan;
  return cfg;
}

std::vector<CampaignCell> mixed_cells(const workload::Trace& trace) {
  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);
  const hybridmem::Placement all_slow(trace.key_count(),
                                      hybridmem::NodeId::kSlow);
  return {{all_fast, 0}, {all_slow, 0}, {all_fast, 1}, {all_slow, 1}};
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
  ASSERT_EQ(a.latency_hist.count(), b.latency_hist.count());
  for (std::size_t i = 0; i < stats::LogHistogram::kBuckets; ++i) {
    ASSERT_EQ(a.latency_hist.bucket(i), b.latency_hist.bucket(i));
  }
}

TEST(FaultCampaign, EmptyPlanDegeneratesToRun) {
  const workload::Trace trace = zipfian_trace();
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);
  const std::vector<CampaignCell> cells = mixed_cells(trace);

  CampaignRunner runner(2);
  const std::vector<RunMeasurement> plain = runner.run(engine, trace, cells);
  CampaignResult checked = runner.run_checked(engine, trace, cells);

  EXPECT_FALSE(checked.partial());
  EXPECT_TRUE(checked.failures.empty());
  ASSERT_EQ(checked.measurements.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(checked.measurements[i].has_value());
    expect_bit_identical(*checked.measurements[i], plain[i]);
  }
}

TEST(FaultCampaign, MixedPlanQuarantinesSomeCellsAndKeepsOthers) {
  const workload::Trace trace = zipfian_trace();
  const SensitivityEngine engine(faulty_config(poison_plan()));
  const std::vector<CampaignCell> cells = mixed_cells(trace);

  CampaignRunner runner(2);
  const CampaignResult result = runner.run_checked(engine, trace, cells);

  // All-FastMem cells (0, 2) never touch SlowMem: accepted. All-SlowMem
  // cells (1, 3) cannot dodge a 20 % poison set: quarantined.
  ASSERT_EQ(result.measurements.size(), 4u);
  EXPECT_TRUE(result.measurements[0].has_value());
  EXPECT_TRUE(result.measurements[2].has_value());
  EXPECT_FALSE(result.measurements[1].has_value());
  EXPECT_FALSE(result.measurements[3].has_value());

  ASSERT_TRUE(result.partial());
  ASSERT_EQ(result.failures.size(), 2u);
  for (const CellFailure& f : result.failures) {
    EXPECT_EQ(f.attempts, 2);  // first try + exactly one retry
    EXPECT_EQ(f.fast_keys, 0u);
    EXPECT_EQ(f.error.code, util::ErrorCode::kFaultInjected);
    EXPECT_GT(f.faults.events(), 0u);
    EXPECT_GT(f.faults.poison_hits, 0u);
  }
  // Ledger is in cell order at any schedule.
  EXPECT_EQ(result.failures[0].cell, 1u);
  EXPECT_EQ(result.failures[1].cell, 3u);
}

TEST(FaultCampaign, RunAndMeasureGridThrowInsteadOfReturningPerturbed) {
  // run() and measure_grid() apply the same attempt rule as run_checked()
  // but have no slot for a quarantined cell: the first one is thrown.
  const workload::Trace trace = zipfian_trace();
  const SensitivityEngine engine(faulty_config(poison_plan()));
  const std::vector<CampaignCell> cells = mixed_cells(trace);

  CampaignRunner runner(2);
  try {
    (void)runner.run(engine, trace, cells);
    FAIL() << "run() returned a perturbed measurement";
  } catch (const CellQuarantinedError& e) {
    EXPECT_EQ(e.failure(), runner.run_checked(engine, trace, cells)
                               .failures.front());
    EXPECT_EQ(e.failure().cell, 1u);
    EXPECT_EQ(e.failure().error.code, util::ErrorCode::kFaultInjected);
  }
  try {
    (void)runner.measure_grid(engine, trace,
                              {cells[0].placement, cells[1].placement});
    FAIL() << "measure_grid() returned a perturbed measurement";
  } catch (const CellQuarantinedError& e) {
    EXPECT_EQ(e.failure().cell, 2u);  // the all-SlowMem placement's repeat 0
    EXPECT_EQ(e.failure().repeat, 0);
  }
}

TEST(FaultCampaign, AcceptedCellsAreBitIdenticalToFaultFree) {
  const workload::Trace trace = zipfian_trace();
  const std::vector<CampaignCell> cells = mixed_cells(trace);

  SensitivityConfig healthy_cfg;
  healthy_cfg.repeats = 2;
  const SensitivityEngine healthy(healthy_cfg);
  const SensitivityEngine faulty(faulty_config(poison_plan()));

  CampaignRunner runner(2);
  const std::vector<RunMeasurement> reference =
      runner.run(healthy, trace, cells);
  const CampaignResult checked = runner.run_checked(faulty, trace, cells);

  ASSERT_EQ(checked.measurements.size(), reference.size());
  int accepted = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (!checked.measurements[i].has_value()) continue;
    ++accepted;
    expect_bit_identical(*checked.measurements[i], reference[i]);
    EXPECT_EQ(checked.measurements[i]->faults, faultinject::FaultStats{});
  }
  EXPECT_GT(accepted, 0);
}

/// Param = worker threads. The acceptance criterion: same seed, threads
/// in {1, 2, 8} — bit-identical campaign results AND identical ledgers.
class FaultCampaignThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultCampaignThreads, ResultsAndLedgerAgreeWithSerialBitForBit) {
  const workload::Trace trace = zipfian_trace();
  const SensitivityEngine engine(faulty_config(poison_plan()));
  const std::vector<CampaignCell> cells = mixed_cells(trace);

  CampaignRunner serial(1);
  CampaignRunner parallel(GetParam());
  const CampaignResult ref = serial.run_checked(engine, trace, cells);
  const CampaignResult out = parallel.run_checked(engine, trace, cells);

  ASSERT_EQ(out.measurements.size(), ref.measurements.size());
  for (std::size_t i = 0; i < ref.measurements.size(); ++i) {
    ASSERT_EQ(out.measurements[i].has_value(),
              ref.measurements[i].has_value())
        << "cell " << i;
    if (ref.measurements[i].has_value()) {
      expect_bit_identical(*out.measurements[i], *ref.measurements[i]);
    }
  }
  // CellFailure has full value equality: same cells, same attempt counts,
  // same typed errors, same absorbed-event counters.
  EXPECT_EQ(out.failures, ref.failures);
}

TEST_P(FaultCampaignThreads, GridMergeAgreesWithSerialBitForBit) {
  const workload::Trace trace = zipfian_trace();
  const SensitivityEngine engine(faulty_config(poison_plan()));
  const std::vector<hybridmem::Placement> placements = {
      hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kFast),
      hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kSlow)};

  CampaignRunner serial(1);
  CampaignRunner parallel(GetParam());
  const CampaignResult ref =
      serial.measure_grid_checked(engine, trace, placements);
  const CampaignResult out =
      parallel.measure_grid_checked(engine, trace, placements);

  ASSERT_EQ(out.measurements.size(), ref.measurements.size());
  for (std::size_t i = 0; i < ref.measurements.size(); ++i) {
    ASSERT_EQ(out.measurements[i].has_value(),
              ref.measurements[i].has_value());
    if (ref.measurements[i].has_value()) {
      expect_bit_identical(*out.measurements[i], *ref.measurements[i]);
    }
  }
  EXPECT_EQ(out.failures, ref.failures);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, FaultCampaignThreads,
                         ::testing::Values<std::size_t>(1, 2, 8),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

TEST(FaultCampaign, GridMergeIsAllOrNothingPerPlacement) {
  const workload::Trace trace = zipfian_trace();
  const SensitivityEngine faulty(faulty_config(poison_plan()));
  SensitivityConfig healthy_cfg;
  healthy_cfg.repeats = 2;
  const SensitivityEngine healthy(healthy_cfg);

  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);
  const hybridmem::Placement all_slow(trace.key_count(),
                                      hybridmem::NodeId::kSlow);

  CampaignRunner runner(2);
  const CampaignResult grid =
      runner.measure_grid_checked(faulty, trace, {all_fast, all_slow});
  const std::vector<RunMeasurement> reference =
      runner.measure_grid(healthy, trace, {all_fast, all_slow});

  ASSERT_EQ(grid.measurements.size(), 2u);
  // The clean placement's merged repeats equal the fault-free average
  // bit for bit; the poisoned placement is quarantined wholesale, never
  // averaged from a subset of surviving repeats.
  ASSERT_TRUE(grid.measurements[0].has_value());
  expect_bit_identical(*grid.measurements[0], reference[0]);
  EXPECT_FALSE(grid.measurements[1].has_value());
  EXPECT_TRUE(grid.partial());
}

TEST(FaultCampaign, LedgerRendersOneRowPerQuarantinedCell) {
  const workload::Trace trace = zipfian_trace();
  const SensitivityEngine engine(faulty_config(poison_plan()));
  CampaignRunner runner(2);
  const CampaignResult result =
      runner.run_checked(engine, trace, mixed_cells(trace));
  ASSERT_FALSE(result.failures.empty());

  const std::string ledger = render_failure_ledger(result.failures);
  EXPECT_NE(ledger.find("cell"), std::string::npos);
  EXPECT_NE(ledger.find("fast keys"), std::string::npos);
  EXPECT_NE(ledger.find("fault_injected"), std::string::npos);
  EXPECT_NE(ledger.find("events t/p/bw"), std::string::npos);
}

TEST(FaultCampaign, MnemoProfileDegradesInsteadOfLying) {
  const workload::Trace trace = zipfian_trace();
  MnemoConfig cfg;
  cfg.repeats = 2;
  cfg.threads = 2;
  cfg.faults = poison_plan();
  const Mnemo mnemo(cfg);
  const MnemoReport report = mnemo.profile(trace);

  // The all-SlowMem baseline is unmeasurable under 20 % poison, so the
  // session must flag itself degraded and withhold the curve/SLO numbers
  // rather than derive them from a perturbed baseline.
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.partial());
  EXPECT_FALSE(report.cell_failures.empty());
  EXPECT_TRUE(report.curve.points.empty());
  EXPECT_FALSE(report.slo_choice.has_value());
}

TEST(FaultCampaign, MnemoProfileSurvivesAHarmlessPlan) {
  const workload::Trace trace = zipfian_trace();
  MnemoConfig cfg;
  cfg.repeats = 2;
  cfg.threads = 2;
  // A rate this small draws no fault in ~2k SlowMem reads per cell: the
  // armed platform stays event-free, so the full profile (curve + SLO)
  // must come out, not degraded, with an empty ledger.
  cfg.faults.transient_read_rate = 1e-9;
  const Mnemo mnemo(cfg);
  const MnemoReport report = mnemo.profile(trace);

  EXPECT_FALSE(report.degraded);
  EXPECT_FALSE(report.partial());
  EXPECT_FALSE(report.curve.points.empty());
}

TEST(FaultCampaign, MnemoHealthyProfileMatchesFaultFreeBitForBit) {
  const workload::Trace trace = zipfian_trace();
  MnemoConfig healthy_cfg;
  healthy_cfg.repeats = 2;
  healthy_cfg.threads = 2;
  MnemoConfig armed_cfg = healthy_cfg;
  armed_cfg.faults.transient_read_rate = 1e-9;

  const MnemoReport healthy = Mnemo(healthy_cfg).profile(trace);
  const MnemoReport armed = Mnemo(armed_cfg).profile(trace);

  // Zero absorbed events means the armed platform's numbers are the
  // fault-free platform's numbers — not approximately, bitwise.
  expect_bit_identical(armed.baselines.fast, healthy.baselines.fast);
  expect_bit_identical(armed.baselines.slow, healthy.baselines.slow);
  ASSERT_EQ(armed.curve.points.size(), healthy.curve.points.size());
  for (std::size_t i = 0; i < healthy.curve.points.size(); ++i) {
    ASSERT_EQ(armed.curve.points[i].est_throughput_ops,
              healthy.curve.points[i].est_throughput_ops);
    ASSERT_EQ(armed.curve.points[i].cost_factor,
              healthy.curve.points[i].cost_factor);
  }
}

}  // namespace
}  // namespace mnemo::core
