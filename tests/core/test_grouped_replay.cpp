// Equivalence oracle for placement-grouped skeleton replay (DESIGN.md
// §14): one leader per placement replaying fully with the skeleton tap
// armed, its repeat siblings replaying the published skeleton as tasks of
// their own, must produce measurements bit-identical (field-for-field via
// RunMeasurement's defaulted operator==) to per-cell
// SensitivityEngine::try_run_once — and, under fault injection, to a
// per-cell checked oracle that applies the documented attempt rule — for
// every store architecture, at every thread count in {1, 2, 8}, through
// run(), run_checked() and the async grid. The golden fixtures
// (test_golden_replay, test_serve_golden) pin the same grids' bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "faultinject/io_fault.hpp"
#include "util/cancel.hpp"
#include "util/task_scheduler.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr kvstore::StoreKind kStores[] = {kvstore::StoreKind::kVermilion,
                                          kvstore::StoreKind::kCachet,
                                          kvstore::StoreKind::kDynaStore};

workload::Trace small_trace() {
  workload::WorkloadSpec spec;
  spec.name = "grouped_replay";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.85;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 200;
  spec.request_count = 2'000;
  spec.seed = 0xc0dec;
  return workload::Trace::generate(spec);
}

/// `count` placements along the key order, from all-SlowMem to all-FastMem.
std::vector<hybridmem::Placement> sweep_placements(
    const workload::Trace& trace, std::size_t count = 3) {
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  std::vector<hybridmem::Placement> placements;
  for (std::size_t p = 0; p < count; ++p) {
    const double f = static_cast<double>(p) / static_cast<double>(count - 1);
    placements.push_back(hybridmem::Placement::from_order(
        order, static_cast<std::size_t>(
                   f * static_cast<double>(trace.key_count()))));
  }
  return placements;
}

std::vector<CampaignCell> grid_cells(
    const std::vector<hybridmem::Placement>& placements, int repeats) {
  std::vector<CampaignCell> cells;
  for (const hybridmem::Placement& p : placements) {
    for (int r = 0; r < repeats; ++r) cells.push_back({p, r});
  }
  return cells;
}

faultinject::FaultPlan poison_plan() {
  faultinject::FaultPlan plan;
  plan.poison_rate = 0.2;
  return plan;
}

/// The per-cell oracle: one full try_run_once per cell, no sharing.
std::vector<RunMeasurement> per_cell(const SensitivityEngine& engine,
                                     const workload::Trace& trace,
                                     const std::vector<CampaignCell>& cells) {
  const workload::CompiledTrace compiled(trace);
  std::vector<RunMeasurement> out;
  for (const CampaignCell& cell : cells) {
    out.push_back(
        engine.try_run_once(compiled, cell.placement, cell.repeat).value());
  }
  return out;
}

/// The per-cell checked oracle: the attempt rule run_checked documents,
/// applied cell by cell with no sharing. A run is accepted only when it
/// succeeded and absorbed zero fault events; a rejected cell is retried
/// once under an attempt-shifted fault stream, then quarantined with the
/// last attempt's error and fault counters.
CampaignResult per_cell_checked(const SensitivityEngine& engine,
                                const workload::Trace& trace,
                                const std::vector<CampaignCell>& cells) {
  const workload::CompiledTrace compiled(trace);
  CampaignResult out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignCell& cell = cells[i];
    std::optional<RunMeasurement> accepted;
    CellFailure f;
    for (int attempt = 0; attempt < 2 && !accepted; ++attempt) {
      util::Result<RunMeasurement> run =
          engine.try_run_once(compiled, cell.placement, cell.repeat, attempt);
      if (!run.ok()) {
        f.error = run.error();
        f.faults = faultinject::FaultStats{};
      } else if (run.value().faults.events() != 0) {
        f.faults = run.value().faults;
        f.error.code = util::ErrorCode::kFaultInjected;
        f.error.message = "measurement perturbed: " +
                          std::to_string(f.faults.events()) +
                          " fault events absorbed";
      } else {
        accepted = run.value();
      }
    }
    out.measurements.push_back(accepted);
    if (!accepted) {
      f.cell = i;
      f.fast_keys = cell.placement.fast_keys();
      f.repeat = cell.repeat;
      f.attempts = 2;
      out.failures.push_back(f);
    }
  }
  return out;
}

/// Average each placement's repeats of a repeat-major grid, all or
/// nothing: one missing repeat leaves the placement's slot empty.
std::vector<std::optional<RunMeasurement>> fold_repeats(
    const std::vector<std::optional<RunMeasurement>>& cells, int repeats) {
  const auto n = static_cast<std::size_t>(repeats);
  std::vector<std::optional<RunMeasurement>> out;
  for (std::size_t first = 0; first < cells.size(); first += n) {
    std::vector<RunMeasurement> group;
    for (std::size_t r = first; r < first + n; ++r) {
      if (cells[r]) group.push_back(*cells[r]);
    }
    out.push_back(group.size() == n ? std::optional(average_runs(group))
                                    : std::nullopt);
  }
  return out;
}

/// measure_grid_checked_async on a private scheduler, joined here.
CampaignRunner::AsyncOutcome run_async(
    const SensitivityConfig& cfg, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements,
    std::size_t threads) {
  util::TaskScheduler sched(threads);
  std::promise<CampaignRunner::AsyncOutcome> settled;
  CampaignRunner::measure_grid_checked_async(
      std::make_shared<const SensitivityEngine>(cfg), trace, placements,
      /*cancel=*/nullptr, sched.make_group(),
      [&](CampaignRunner::AsyncOutcome outcome) {
        settled.set_value(std::move(outcome));
      });
  return settled.get_future().get();
}

TEST(GroupedReplay, GridBitIdenticalAcrossThreadsAndStores) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 3;
    const SensitivityEngine engine(cfg);
    const std::vector<CampaignCell> cells =
        grid_cells(placements, cfg.repeats);

    const std::vector<RunMeasurement> oracle = per_cell(engine, trace, cells);
    const std::vector<std::optional<RunMeasurement>> merged =
        fold_repeats({oracle.begin(), oracle.end()}, cfg.repeats);

    for (const std::size_t threads : kThreadCounts) {
      CampaignRunner grouped(threads);
      const std::vector<RunMeasurement> out =
          grouped.run(engine, trace, cells);
      ASSERT_EQ(out.size(), oracle.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(oracle[i], out[i]) << kvstore::to_string(store) << " cell "
                                     << i << " threads " << threads;
      }
      // Three groups of three: each leader overlaps only the other
      // groups, so at most 9 - 3 cells are ever runnable at once.
      EXPECT_EQ(grouped.stats().threads, std::min<std::size_t>(threads, 6));
      const std::vector<RunMeasurement> grid =
          grouped.measure_grid(engine, trace, placements);
      EXPECT_EQ(std::vector<std::optional<RunMeasurement>>(grid.begin(),
                                                           grid.end()),
                merged)
          << kvstore::to_string(store) << " threads " << threads;
    }
  }
}

TEST(GroupedReplay, CheckedCampaignWithFaultsMatchesPerCell) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace, 2);

  for (const kvstore::StoreKind store : kStores) {
    for (const bool faults : {false, true}) {
      SensitivityConfig cfg;
      cfg.store = store;
      cfg.repeats = 3;
      if (faults) cfg.faults = poison_plan();
      const SensitivityEngine engine(cfg);
      const std::vector<CampaignCell> cells =
          grid_cells(placements, cfg.repeats);

      const CampaignResult reference = per_cell_checked(engine, trace, cells);
      // The plan must actually quarantine something, or the checked path's
      // retry/quarantine legs go untested; with no plan, every cell is
      // accepted on its first attempt.
      EXPECT_EQ(reference.partial(), faults) << kvstore::to_string(store);

      for (const std::size_t threads : kThreadCounts) {
        CampaignRunner grouped(threads);
        const CampaignResult out = grouped.run_checked(engine, trace, cells);
        EXPECT_EQ(reference.measurements, out.measurements)
            << kvstore::to_string(store) << " faults " << faults
            << " threads " << threads;
        EXPECT_EQ(reference.failures, out.failures)
            << kvstore::to_string(store) << " faults " << faults
            << " threads " << threads;
        // An armed plan makes every cell its own task.
        EXPECT_EQ(grouped.stats().threads,
                  std::min<std::size_t>(threads, faults ? 6 : 4));
      }
    }
  }
}

TEST(GroupedReplay, AsyncGridMatchesSyncAcrossThreadsStoresAndFaults) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace, 2);

  for (const kvstore::StoreKind store : kStores) {
    for (const bool faults : {false, true}) {
      SensitivityConfig cfg;
      cfg.store = store;
      cfg.repeats = 3;
      if (faults) cfg.faults = poison_plan();
      const SensitivityEngine engine(cfg);
      const CampaignResult oracle = per_cell_checked(
          engine, trace, grid_cells(placements, cfg.repeats));
      const std::vector<std::optional<RunMeasurement>> reference =
          fold_repeats(oracle.measurements, cfg.repeats);

      for (const std::size_t threads : kThreadCounts) {
        const CampaignRunner::AsyncOutcome outcome =
            run_async(cfg, trace, placements, threads);
        ASSERT_EQ(outcome.error, nullptr);
        EXPECT_EQ(reference, outcome.grid.measurements)
            << kvstore::to_string(store) << " faults " << faults
            << " threads " << threads;
        EXPECT_EQ(oracle.failures, outcome.grid.failures)
            << kvstore::to_string(store) << " faults " << faults
            << " threads " << threads;
        CampaignRunner sync(threads);
        const CampaignResult grid =
            sync.measure_grid_checked(engine, trace, placements);
        EXPECT_EQ(grid.measurements, outcome.grid.measurements)
            << kvstore::to_string(store) << " faults " << faults
            << " threads " << threads;
        EXPECT_EQ(grid.failures, outcome.grid.failures)
            << kvstore::to_string(store) << " faults " << faults
            << " threads " << threads;
        EXPECT_EQ(outcome.stats.cells, 6u);
        EXPECT_EQ(outcome.stats.threads,
                  std::min<std::size_t>(threads, faults ? 6 : 4));
      }
    }
  }
}

TEST(GroupedReplay, FollowerMatchesTryRunOnce) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    const SensitivityEngine engine(cfg);
    for (const hybridmem::Placement& placement : placements) {
      // Recording is purely observational: the leader's own measurement
      // is the unrecorded one, bit for bit.
      ReplaySkeleton skeleton;
      const util::Result<RunMeasurement> leader =
          engine.try_run_once(compiled, placement, 0, 0, &skeleton);
      ASSERT_TRUE(leader.ok());
      EXPECT_EQ(leader.value(),
                engine.try_run_once(compiled, placement, 0).value());
      ASSERT_TRUE(skeleton.shareable);
      ASSERT_EQ(skeleton.service_ns.size(), compiled.request_count());

      // Siblings, and the degenerate sibling that shares the leader's own
      // repeat.
      for (const int repeat : {1, 2, 0}) {
        EXPECT_EQ(engine.replay_skeleton(compiled, placement, repeat,
                                         skeleton)
                      .value(),
                  engine.try_run_once(compiled, placement, repeat).value())
            << kvstore::to_string(store) << " repeat " << repeat;
      }
    }
  }
}

// Placement groups form by placement content across the whole cell list:
// a sibling copied to a new address, a sibling separated from its leader
// by other groups, and a duplicate of the leader's own cell all replay the
// leader's skeleton — and still match their own full replay exactly.
TEST(GroupedReplay, RepeatSiblingsMatchPerCellExactly) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);
  const hybridmem::Placement half_copy = placements[1];

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    const SensitivityEngine engine(cfg);
    const std::vector<CampaignCell> cells = {
        {placements[1], 0},  // leader
        {half_copy, 1},      // sibling via content equality
        {placements[2], 0},  // another group between siblings
        {placements[0], 0},  // a singleton group
        {placements[1], 2},  // sibling after the gap
        {placements[2], 1},  // the middle group's sibling
        {placements[1], 0},  // duplicate of the leader's cell
    };
    const std::vector<RunMeasurement> oracle = per_cell(engine, trace, cells);
    for (const std::size_t threads : kThreadCounts) {
      CampaignRunner grouped(threads);
      EXPECT_EQ(grouped.run(engine, trace, cells), oracle)
          << kvstore::to_string(store) << " threads " << threads;
      // Two shared groups: 7 - 2 cells are runnable at once at most.
      EXPECT_EQ(grouped.stats().threads, std::min<std::size_t>(threads, 5));
    }
    // The duplicate shares the leader's seed, so the whole measurement —
    // noise stream included — must be bit-equal to it.
    EXPECT_EQ(oracle[6], oracle[0]) << kvstore::to_string(store);
  }
}

// Repeats 1: every group is a leader alone, nothing is shared, and every
// cell is runnable at once — including more groups than workers.
TEST(GroupedReplay, SingleRepeatGridsHaveNoFollowers) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace, 6);
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  const std::vector<CampaignCell> cells = grid_cells(placements, 1);
  const std::vector<RunMeasurement> oracle = per_cell(engine, trace, cells);
  for (const std::size_t threads : kThreadCounts) {
    CampaignRunner grouped(threads);
    EXPECT_EQ(grouped.run(engine, trace, cells), oracle)
        << "threads " << threads;
    EXPECT_EQ(grouped.stats().threads, std::min<std::size_t>(threads, 6));
  }
}

TEST(GroupedReplay, MoreGroupsThanWorkersStayBitIdentical) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace, 7);
  SensitivityConfig cfg;
  cfg.store = kvstore::StoreKind::kCachet;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);
  const std::vector<CampaignCell> cells = grid_cells(placements, 2);
  const std::vector<RunMeasurement> oracle = per_cell(engine, trace, cells);
  CampaignRunner grouped(2);
  EXPECT_EQ(grouped.run(engine, trace, cells), oracle);
  EXPECT_EQ(grouped.stats().threads, 2u);
  const CampaignRunner::AsyncOutcome outcome =
      run_async(cfg, trace, placements, 2);
  ASSERT_EQ(outcome.error, nullptr);
  EXPECT_EQ(outcome.grid.measurements,
            fold_repeats({oracle.begin(), oracle.end()}, 2));
}

// A leader that fails publishes no skeleton; its siblings replay fully and
// reproduce its typed error, with the same ledger per-cell replay keeps.
TEST(GroupedReplay, LeaderErrorIsReproducedByItsFollowers) {
  const workload::Trace trace("empty", 16, {},
                              std::vector<std::uint64_t>(16, 64));
  const hybridmem::Placement placement(trace.key_count(),
                                       hybridmem::NodeId::kFast);
  SensitivityConfig cfg;
  cfg.repeats = 3;
  const SensitivityEngine engine(cfg);
  const std::vector<CampaignCell> cells = grid_cells({placement}, 3);

  const CampaignResult reference = per_cell_checked(engine, trace, cells);
  ASSERT_EQ(reference.failures.size(), cells.size());
  for (const std::size_t threads : kThreadCounts) {
    CampaignRunner grouped(threads);
    const CampaignResult out = grouped.run_checked(engine, trace, cells);
    EXPECT_EQ(out.failures, reference.failures) << "threads " << threads;
    for (const CellFailure& f : out.failures) {
      EXPECT_EQ(f.error.code, util::ErrorCode::kInvalidArgument);
      EXPECT_EQ(f.attempts, 2);
    }
  }
}

// Cancellation lands after the first leader settles and before any of its
// followers (or the second leader) starts: one worker, blocked until the
// whole schedule is queued, runs the grid's first leader, then the
// canceling task (its group holds the round's next credit). The grid must
// publish nothing.
TEST(GroupedReplay, CancelBetweenLeaderAndFollowersLeavesNoPartialGrid) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace, 2);
  SensitivityConfig cfg;
  cfg.repeats = 3;

  faultinject::IoFaultPlan chaos_plan;  // counts every cell that starts
  chaos_plan.slow_cell_rate = 1.0;
  chaos_plan.slow_cell_ms = 0.001;
  faultinject::ScopedIoFaults chaos(chaos_plan);

  const std::size_t recorded = campaign_totals().cells;
  util::CancelToken token;
  util::TaskScheduler sched(1);
  auto blocker = sched.make_group();
  auto grid_group = sched.make_group();
  auto canceler = sched.make_group();
  std::latch queued(1);
  blocker->submit(util::TaskScheduler::TaskClass::kCell,
                  [&] { queued.wait(); });
  std::promise<CampaignRunner::AsyncOutcome> settled;
  CampaignRunner::measure_grid_checked_async(
      std::make_shared<const SensitivityEngine>(cfg), trace, placements,
      &token, grid_group, [&](CampaignRunner::AsyncOutcome outcome) {
        settled.set_value(std::move(outcome));
      });
  canceler->submit(util::TaskScheduler::TaskClass::kCell, [&] {
    token.cancel({util::ErrorCode::kCanceled, "client hung up"});
  });
  queued.count_down();

  const CampaignRunner::AsyncOutcome outcome = settled.get_future().get();
  ASSERT_NE(outcome.error, nullptr);
  try {
    std::rethrow_exception(outcome.error);
  } catch (const util::CanceledError& e) {
    EXPECT_EQ(e.error().code, util::ErrorCode::kCanceled);
  }
  EXPECT_TRUE(outcome.grid.measurements.empty());
  EXPECT_TRUE(outcome.grid.failures.empty());
  EXPECT_EQ(chaos.injector().stats().delayed_cells, 1u)
      << "only the first leader may start";
  EXPECT_EQ(campaign_totals().cells, recorded);
}

TEST(GroupedReplay, StatsReportFanOut) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);

  reset_campaign_totals();
  CampaignRunner runner(8);
  (void)runner.measure_grid(engine, trace, placements);
  const CampaignStats& s = runner.stats();
  EXPECT_EQ(s.cells, 6u);
  EXPECT_EQ(s.threads, 3u);  // 6 cells, 3 shared groups
  EXPECT_EQ(s.render("campaign").find("lane width"), std::string::npos);

  const CampaignStats totals = campaign_totals();
  EXPECT_EQ(totals.threads, 3u);
  reset_campaign_totals();
}

}  // namespace
}  // namespace mnemo::core
