#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "faultinject/io_fault.hpp"
#include "stats/log_histogram.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

namespace {

/// Process-wide accumulator behind campaign_totals(). Cell durations land
/// in a fixed-size log histogram, so the registry stays the same size
/// however many grids a long-running process (serve) records; its p50/p95
/// are within one bucket of exact.
struct TotalsRegistry {
  std::mutex mu;
  stats::LogHistogram cell_ns;
  std::size_t threads = 0;  ///< widest fan-out seen
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

TotalsRegistry& totals_registry() {
  static TotalsRegistry registry;
  return registry;
}

void record_campaign(const CampaignStats& stats,
                     const std::vector<double>& cell_s) {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  for (const double s : cell_s) reg.cell_ns.add(s * 1e9);
  reg.threads = std::max(reg.threads, stats.threads);
  reg.wall_s += stats.wall_s;
  reg.cpu_s += stats.cpu_s;
}

/// The repeat-major cell vector behind every measurement grid.
[[nodiscard]] std::vector<CampaignCell> build_grid_cells(
    const std::vector<hybridmem::Placement>& placements, int repeats) {
  std::vector<CampaignCell> cells;
  cells.reserve(placements.size() * static_cast<std::size_t>(repeats));
  for (const hybridmem::Placement& placement : placements) {
    for (int r = 0; r < repeats; ++r) cells.push_back({placement, r});
  }
  return cells;
}

/// Fold a repeat-major checked grid down to one slot per placement,
/// all-or-nothing: averaging a subset of the repeats would differ from
/// the fault-free average even if every surviving repeat is clean, so one
/// quarantined repeat quarantines the merge.
[[nodiscard]] CampaignResult merge_placement_grid(CampaignResult grid,
                                                  std::size_t num_placements,
                                                  int repeats) {
  CampaignResult merged;
  merged.failures = std::move(grid.failures);
  merged.measurements.reserve(num_placements);
  std::vector<RunMeasurement> group;
  for (std::size_t p = 0; p < num_placements; ++p) {
    group.clear();
    bool complete = true;
    for (int r = 0; r < repeats && complete; ++r) {
      const std::optional<RunMeasurement>& slot =
          grid.measurements[p * static_cast<std::size_t>(repeats) +
                            static_cast<std::size_t>(r)];
      if (slot) {
        group.push_back(*slot);
      } else {
        complete = false;
      }
    }
    if (complete) {
      merged.measurements.emplace_back(average_runs(group));
    } else {
      merged.measurements.emplace_back(std::nullopt);
    }
  }
  return merged;
}

/// The slots of a grid whose entry point returns one measurement per slot
/// (run(), measure_grid()): a quarantined cell has none to give, so the
/// first one is thrown instead.
[[nodiscard]] std::vector<RunMeasurement> unwrap(CampaignResult grid) {
  if (grid.partial()) throw CellQuarantinedError(grid.failures.front());
  std::vector<RunMeasurement> out;
  out.reserve(grid.measurements.size());
  for (std::optional<RunMeasurement>& slot : grid.measurements) {
    out.push_back(std::move(*slot));
  }
  return out;
}

/// One grid in flight (DESIGN.md §14), shared by every task of the grid:
/// the last reference to drop frees it, and with it any skeleton a group
/// still holds.
struct Grid {
  // The plan, fixed before the first task starts.
  /// Owning on the async path; on the sync path it borrows the caller's
  /// engine, which outlives the join and so every task.
  std::shared_ptr<const SensitivityEngine> engine;
  std::vector<CampaignCell> cells;
  std::optional<workload::CompiledTrace> compiled;  ///< empty for no cells
  /// Placement groups, each in cell order with its leader first; all
  /// singletons when skeleton sharing is off.
  std::vector<std::vector<std::size_t>> groups;
  const util::CancelToken* cancel = nullptr;
  /// Where tasks run: this scheduler group, or — on the serial path, when
  /// null — directly on the thread that submits them.
  std::shared_ptr<util::TaskScheduler::Group> group;
  std::size_t workers = 1;  ///< width of the executor the grid runs on
  /// Async only: the merge continuation release() hands the settled grid
  /// to, as a kRequest task. A sync join settles the grid itself.
  std::function<void(CampaignRunner::AsyncOutcome)> done;
  util::WallTimer wall;

  // Slot-indexed results: cell i writes only slot i, so the merge order is
  // the cell order whatever the schedule.
  std::vector<std::optional<RunMeasurement>> slots;
  std::vector<std::optional<CellFailure>> failed;
  std::vector<double> cell_s;
  std::atomic<std::size_t> remaining{0};  ///< tasks queued or running
  std::mutex error_mu;
  std::exception_ptr error;  ///< first exception a task let escape

  [[nodiscard]] bool canceled() const {
    return cancel != nullptr && cancel->canceled();
  }

  /// The accounting the plan fixes: `workers` bounded by the widest
  /// fan-out, C cells less one per shared group (see CampaignStats).
  [[nodiscard]] CampaignStats plan_stats() const {
    std::size_t width = cells.size();
    for (const std::vector<std::size_t>& g : groups) width -= g.size() > 1;
    CampaignStats stats;
    stats.cells = cells.size();
    stats.threads = std::max<std::size_t>(1, std::min(workers, width));
    return stats;
  }

  [[nodiscard]] CampaignResult take_result() {
    CampaignResult result;
    result.measurements = std::move(slots);
    for (std::optional<CellFailure>& f : failed) {
      if (f) result.failures.push_back(std::move(*f));
    }
    return result;
  }
};

/// Plans a grid: its placement groups and result slots, and the trace
/// compiled once for every cell — the per-key hashes and byte streams
/// are placement- and repeat-invariant, so every cell shares one read-only
/// artifact (DESIGN.md §12). With skeleton sharing, every cell joins the
/// group of the first earlier cell with an equal placement — content
/// equality, since cells carry copies — so the partition depends on the
/// cells alone, never on threads or scheduling. Fault plans are
/// placement-crossing (a poisoned read remaps its key mid-run), so an
/// armed plan makes every cell its own group. `workers` is the width of
/// the executor the grid will run on.
[[nodiscard]] std::shared_ptr<Grid> plan_grid(
    std::shared_ptr<const SensitivityEngine> engine,
    const workload::Trace& trace, std::vector<CampaignCell> cells,
    const util::CancelToken* cancel, std::size_t workers) {
  const auto g = std::make_shared<Grid>();
  g->engine = std::move(engine);
  g->cells = std::move(cells);
  g->cancel = cancel;
  g->workers = workers;
  const bool share = g->engine->config().faults.empty();
  for (std::size_t i = 0; i < g->cells.size(); ++i) {
    const auto same = [&](const std::vector<std::size_t>& group) {
      return g->cells[group.front()].placement == g->cells[i].placement;
    };
    const auto it =
        share ? std::find_if(g->groups.begin(), g->groups.end(), same)
              : g->groups.end();
    if (it == g->groups.end()) {
      g->groups.push_back({i});
    } else {
      it->push_back(i);
    }
  }
  g->slots.resize(g->cells.size());
  g->failed.resize(g->cells.size());
  g->cell_s.assign(g->cells.size(), 0.0);
  if (!g->cells.empty()) g->compiled.emplace(trace);
  return g;
}

/// The one attempt rule every cell takes: a run is accepted only when it
/// succeeded AND absorbed zero fault events — the condition under which it
/// is bit-identical to the fault-free campaign, and what every successful
/// cell of a fault-free engine satisfies on its first attempt. A rejected
/// cell is retried once under an attempt-shifted fault stream, then
/// quarantined. Attempt 0 is a follower's skeleton replay when `follow` is
/// set, else a full replay that records a skeleton into `record` when
/// asked; a retry is always a full replay.
void run_cell(Grid& g, std::size_t i, const ReplaySkeleton* follow,
              ReplaySkeleton* record) {
  faultinject::chaos_cell_delay(i);
  // Thread-CPU time, not wall: a cell's cost must not include the time its
  // worker spent descheduled, or an oversubscribed scheduler would
  // fabricate speedup.
  util::ThreadCpuTimer timer;
  const CampaignCell& cell = g.cells[i];
  constexpr int kAttempts = 2;
  util::Error last_error;
  faultinject::FaultStats last_stats;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    util::Result<RunMeasurement> run =
        attempt == 0 && follow != nullptr
            ? g.engine->replay_skeleton(*g.compiled, cell.placement,
                                        cell.repeat, *follow)
            : g.engine->try_run_once(*g.compiled, cell.placement, cell.repeat,
                                     attempt, attempt == 0 ? record : nullptr);
    if (run.ok() && run.value().faults.events() == 0) {
      g.slots[i] = std::move(run.value());
      g.cell_s[i] = timer.elapsed_s();
      return;
    }
    if (run.ok()) {
      last_stats = run.value().faults;
      last_error.code = util::ErrorCode::kFaultInjected;
      last_error.message = "measurement perturbed: " +
                           std::to_string(last_stats.events()) +
                           " fault events absorbed";
    } else {
      last_error = run.error();
      last_stats = faultinject::FaultStats{};
    }
  }
  CellFailure f;
  f.cell = i;
  f.fast_keys = cell.placement.fast_keys();
  f.repeat = cell.repeat;
  f.attempts = kAttempts;
  f.error = std::move(last_error);
  f.faults = last_stats;
  g.failed[i] = std::move(f);
  g.cell_s[i] = timer.elapsed_s();
}

/// The one outcome of a settled grid, whichever entry point started it:
/// the plan's accounting, then the cancel reason, a task's escaped
/// exception, or the cells in slot order. Only a completed, nonempty grid
/// enters the process-wide totals.
CampaignRunner::AsyncOutcome settle(Grid& g) {
  CampaignRunner::AsyncOutcome outcome;
  outcome.stats = g.plan_stats();
  outcome.stats.wall_s = g.wall.elapsed_s();
  if (g.canceled()) {
    outcome.error =
        std::make_exception_ptr(util::CanceledError(g.cancel->reason()));
  } else if (g.error != nullptr) {
    outcome.error = g.error;
  } else if (!g.cells.empty()) {
    std::vector<double> sorted = g.cell_s;
    std::sort(sorted.begin(), sorted.end());
    for (const double s : sorted) outcome.stats.cpu_s += s;
    outcome.stats.cell_p50_s = stats::percentile_sorted(sorted, 0.50);
    outcome.stats.cell_p95_s = stats::percentile_sorted(sorted, 0.95);
    record_campaign(outcome.stats, g.cell_s);
    outcome.grid = g.take_result();
  }
  return outcome;
}

/// Drop one task's hold on the grid. The last one out hands an async grid
/// to its merge continuation — submitted from inside a still-counted task,
/// so the scheduler never observes a quiescent gap mid-campaign.
void release(const std::shared_ptr<Grid>& g) {
  if (--g->remaining == 0 && g->done) {
    g->group->submit(util::TaskScheduler::TaskClass::kRequest, [g] {
      const std::function<void(CampaignRunner::AsyncOutcome)> done =
          std::move(g->done);
      done(settle(*g));
    });
  }
}

/// Queue one task on the grid's executor: a detached kCell task of its
/// group, or on the serial path a direct call. The cancel token is checked
/// before every task — a canceled grid starts nothing new, and whatever
/// already started finishes.
void submit(const std::shared_ptr<Grid>& g, std::function<void()> body) {
  ++g->remaining;
  auto task = [g, body = std::move(body)] {
    if (!g->canceled()) {
      try {
        body();
      } catch (...) {
        std::lock_guard lock(g->error_mu);
        if (g->error == nullptr) g->error = std::current_exception();
      }
    }
    release(g);
  };
  if (g->group != nullptr) {
    g->group->submit(util::TaskScheduler::TaskClass::kCell, std::move(task));
  } else {
    task();
  }
}

/// A placement group's leader task: replay the first cell fully with the
/// skeleton tap armed, then queue each sibling as a task of its own. The
/// skeleton is shared by the group's tasks, and the last sibling task to
/// finish frees it. A leader that failed publishes nothing: its siblings
/// replay fully, reproducing its error.
void lead(const std::shared_ptr<Grid>& g, std::size_t group) {
  const std::vector<std::size_t>& members = g->groups[group];
  std::shared_ptr<ReplaySkeleton> skeleton;
  if (members.size() > 1) skeleton = std::make_shared<ReplaySkeleton>();
  run_cell(*g, members.front(), nullptr, skeleton.get());
  if (skeleton != nullptr && !skeleton->shareable) skeleton.reset();
  for (std::size_t k = 1; k < members.size(); ++k) {
    submit(g, [g, i = members[k], skeleton] {
      run_cell(*g, i, skeleton.get(), nullptr);
    });
  }
}

/// Start the grid's clock and queue every group's leader. A hold on the
/// grid keeps it from settling while leaders are still being queued, and
/// a grid with no cells still settles through here, so every entry point
/// observes one completion path.
void launch(const std::shared_ptr<Grid>& g) {
  g->wall.reset();
  ++g->remaining;
  for (std::size_t group = 0; group < g->groups.size(); ++group) {
    submit(g, [g, group] { lead(g, group); });
  }
  release(g);
}

}  // namespace

std::string describe(const CellFailure& f) {
  return "cell #" + std::to_string(f.cell) + " (fast keys " +
         std::to_string(f.fast_keys) + ", repeat " + std::to_string(f.repeat) +
         ") quarantined: " + f.error.to_string();
}

CellQuarantinedError::CellQuarantinedError(CellFailure failure)
    : std::runtime_error("campaign " + describe(failure)),
      failure_(std::move(failure)) {}

double CampaignStats::speedup() const {
  return wall_s > 0.0 ? cpu_s / wall_s : 0.0;
}

double CampaignStats::occupancy() const {
  return threads > 0 ? speedup() / static_cast<double>(threads) : 0.0;
}

std::string CampaignStats::render(const std::string& title) const {
  util::TablePrinter table({title, "value"});
  table.add_row({"cells run", std::to_string(cells)});
  table.add_row({"threads", std::to_string(threads)});
  table.add_row({"wall time (ms)", util::TablePrinter::num(wall_s * 1e3, 1)});
  table.add_row({"cpu time (ms)", util::TablePrinter::num(cpu_s * 1e3, 1)});
  table.add_row(
      {"cell p50 (ms)", util::TablePrinter::num(cell_p50_s * 1e3, 2)});
  table.add_row(
      {"cell p95 (ms)", util::TablePrinter::num(cell_p95_s * 1e3, 2)});
  table.add_row({"speedup vs serial",
                 util::TablePrinter::num(speedup(), 2) + "x"});
  table.add_row({"pool occupancy", util::TablePrinter::pct(occupancy(), 1)});
  return table.render();
}

CampaignRunner::CampaignRunner(std::size_t threads,
                               const util::CancelToken* cancel)
    : threads_(threads == 0 ? util::hardware_threads() : threads),
      cancel_(cancel) {}

std::vector<RunMeasurement> CampaignRunner::run(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<CampaignCell>& cells) {
  return unwrap(run_checked(engine, trace, cells));
}

CampaignResult CampaignRunner::run_checked(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<CampaignCell>& cells) {
  // The join: the same grid the async path starts, on a transient
  // scheduler sized by the plan's fan-out — or, at fan-out 1, on the caller
  // alone, the serial reference schedule every parallel run matches. The
  // caller helps with kCell tasks only (help_until), so it waits for the
  // last cell and settles the grid itself: no merge task to run.
  const auto g =
      plan_grid({std::shared_ptr<const SensitivityEngine>(), &engine}, trace,
                cells, cancel_, threads_);
  const std::size_t width = g->plan_stats().threads;
  std::optional<util::TaskScheduler> sched;
  if (width > 1) g->group = sched.emplace(width).make_group();
  launch(g);
  if (sched) sched->help_until([&] { return g->remaining == 0; });
  AsyncOutcome outcome = settle(*g);
  stats_ = outcome.stats;
  if (outcome.error != nullptr) std::rethrow_exception(outcome.error);
  return std::move(outcome.grid);
}

CampaignResult CampaignRunner::measure_grid_checked(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  const int repeats = engine.config().repeats;
  return merge_placement_grid(
      run_checked(engine, trace, build_grid_cells(placements, repeats)),
      placements.size(), repeats);
}

std::vector<RunMeasurement> CampaignRunner::measure_grid(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  return unwrap(measure_grid_checked(engine, trace, placements));
}

void CampaignRunner::measure_grid_checked_async(
    std::shared_ptr<const SensitivityEngine> engine,
    const workload::Trace& trace,
    std::vector<hybridmem::Placement> placements,
    const util::CancelToken* cancel,
    std::shared_ptr<util::TaskScheduler::Group> group,
    std::function<void(AsyncOutcome)> done) {
  const int repeats = engine->config().repeats;
  const auto g =
      plan_grid(std::move(engine), trace, build_grid_cells(placements, repeats),
                cancel, group->scheduler().threads());
  g->group = std::move(group);
  g->done = [repeats, num_placements = placements.size(),
             done = std::move(done)](AsyncOutcome outcome) {
    if (outcome.error == nullptr) {
      outcome.grid = merge_placement_grid(std::move(outcome.grid),
                                          num_placements, repeats);
    }
    done(std::move(outcome));
  };
  launch(g);
}

std::string render_failure_ledger(const std::vector<CellFailure>& failures) {
  util::TablePrinter table({"cell", "fast keys", "repeat", "tries",
                            "events t/p/bw", "reason"});
  for (const CellFailure& f : failures) {
    const std::string events =
        std::to_string(f.faults.transient_faults) + "/" +
        std::to_string(f.faults.poison_hits) + "/" +
        std::to_string(f.faults.degraded_accesses);
    table.add_row({std::to_string(f.cell), std::to_string(f.fast_keys),
                   std::to_string(f.repeat), std::to_string(f.attempts),
                   events, f.error.to_string()});
  }
  return table.render();
}

CampaignStats campaign_totals() {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  CampaignStats totals;
  totals.cells = reg.cell_ns.count();
  totals.threads = reg.threads;
  totals.wall_s = reg.wall_s;
  totals.cpu_s = reg.cpu_s;
  if (totals.cells > 0) {
    totals.cell_p50_s = reg.cell_ns.quantile(0.50) / 1e9;
    totals.cell_p95_s = reg.cell_ns.quantile(0.95) / 1e9;
  }
  return totals;
}

void reset_campaign_totals() {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  reg.cell_ns = stats::LogHistogram{};
  reg.threads = 0;
  reg.wall_s = 0.0;
  reg.cpu_s = 0.0;
}

}  // namespace mnemo::core
