// Cancellation contract of the campaign runner: the token is observed
// *between* cells (a started cell always finishes), a canceled run throws
// util::CanceledError instead of returning a partial grid, and the cells
// that did complete are bit-identical to an uncanceled campaign — chaos
// stalls (faultinject::chaos_cell_delay) delay the tool, never the
// simulated clock.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "faultinject/io_fault.hpp"
#include "util/cancel.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

workload::Trace small_trace() {
  workload::WorkloadSpec spec;
  spec.name = "cancel_zipf";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 120;
  spec.request_count = 1'200;
  spec.seed = 0xcafe;
  return workload::Trace::generate(spec);
}

std::vector<CampaignCell> grid_cells(const workload::Trace& trace,
                                     int repeats) {
  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);
  std::vector<CampaignCell> cells;
  for (int r = 0; r < repeats; ++r) cells.push_back({all_fast, r});
  return cells;
}

TEST(CampaignCancel, ExpiredDeadlineThrowsAndRunsNoCell) {
  const workload::Trace trace = small_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  const util::CancelToken token{util::Deadline::after_ms(0)};
  CampaignRunner runner(2, &token);

  const std::size_t before = campaign_totals().cells;
  try {
    (void)runner.run(engine, trace, grid_cells(trace, 4));
    FAIL() << "a canceled campaign must throw, never return a partial grid";
  } catch (const util::CanceledError& e) {
    EXPECT_EQ(e.error().code, util::ErrorCode::kDeadlineExceeded);
  }
  // Every cell observed the expired token and was skipped; nothing was
  // recorded in the process-wide totals (record happens after the throw).
  EXPECT_EQ(campaign_totals().cells, before);
}

TEST(CampaignCancel, RunCheckedAlsoThrowsOnExpiredDeadline) {
  const workload::Trace trace = small_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  const util::CancelToken token{util::Deadline::after_ms(0)};
  CampaignRunner runner(2, &token);
  EXPECT_THROW((void)runner.run_checked(engine, trace, grid_cells(trace, 4)),
               util::CanceledError);
}

TEST(CampaignCancel, MidCampaignCancelThrowsTheExplicitReason) {
  // Chaos stalls make every cell take >= 25ms, so the campaign is still
  // in flight when the out-of-band cancel lands. The runner must finish
  // the started cells, skip the rest, and throw the caller's reason —
  // never hang, never crash.
  faultinject::IoFaultPlan plan;
  plan.slow_cell_rate = 1.0;
  plan.slow_cell_ms = 25.0;
  faultinject::ScopedIoFaults chaos(plan);

  const workload::Trace trace = small_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  util::CancelToken token;
  CampaignRunner runner(2, &token);
  constexpr std::size_t kCells = 16;

  // Cancel once a cell has been seen to start (a stall is counted before
  // it begins), not after a fixed sleep: on a loaded host no cell may
  // have started by then, and a grid canceled before its first cell says
  // nothing about cutting one short.
  std::thread canceler([&] {
    while (chaos.injector().stats().delayed_cells == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.cancel({util::ErrorCode::kCanceled, "client hung up"});
  });
  try {
    (void)runner.run(engine, trace, grid_cells(trace, kCells));
    FAIL() << "campaign outlived an explicit cancel without throwing";
  } catch (const util::CanceledError& e) {
    EXPECT_EQ(e.error().code, util::ErrorCode::kCanceled);
    EXPECT_EQ(e.error().message, "client hung up");
  }
  canceler.join();
  // The cancel cut the grid short: cells had started, and not all ran.
  const std::uint64_t started = chaos.injector().stats().delayed_cells;
  EXPECT_GT(started, 0u);
  EXPECT_LT(started, kCells);
}

TEST(CampaignCancel, UncanceledTokenPerturbsNothing) {
  // A live-but-never-canceled token (the common serve case) must leave
  // the campaign bit-identical to a token-free run.
  const workload::Trace trace = small_trace();
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);
  const std::vector<CampaignCell> cells = grid_cells(trace, cfg.repeats);

  CampaignRunner plain(2);
  const std::vector<RunMeasurement> base = plain.run(engine, trace, cells);

  const util::CancelToken token{util::Deadline::after_ms(600'000)};
  CampaignRunner guarded(2, &token);
  const std::vector<RunMeasurement> got = guarded.run(engine, trace, cells);

  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].runtime_ns, got[i].runtime_ns);
    EXPECT_EQ(base[i].throughput_ops, got[i].throughput_ops);
    EXPECT_EQ(base[i].p99_ns, got[i].p99_ns);
  }
}

TEST(CampaignCancel, ChaosStallsDelayTheToolNotTheMeasurement) {
  const workload::Trace trace = small_trace();
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);
  const std::vector<CampaignCell> cells = grid_cells(trace, cfg.repeats);

  CampaignRunner clean_runner(2);
  const std::vector<RunMeasurement> clean =
      clean_runner.run(engine, trace, cells);

  faultinject::IoFaultPlan plan;
  plan.slow_cell_rate = 1.0;
  plan.slow_cell_ms = 5.0;
  faultinject::ScopedIoFaults chaos(plan);
  CampaignRunner stalled_runner(2);
  const std::vector<RunMeasurement> stalled =
      stalled_runner.run(engine, trace, cells);

  EXPECT_EQ(chaos.injector().stats().delayed_cells, cells.size());
  ASSERT_EQ(clean.size(), stalled.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].runtime_ns, stalled[i].runtime_ns);
    EXPECT_EQ(clean[i].throughput_ops, stalled[i].throughput_ops);
  }
}

}  // namespace
}  // namespace mnemo::core
