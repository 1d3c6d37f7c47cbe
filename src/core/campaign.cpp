#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "faultinject/io_fault.hpp"
#include "stats/summary.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

namespace {

/// Process-wide accumulator behind campaign_totals(). Cell durations are
/// kept so the aggregate p50/p95 are exact; campaigns are small (at most
/// a few thousand cells per bench run).
struct TotalsRegistry {
  std::mutex mu;
  std::vector<double> cell_s;
  std::size_t threads = 0;  ///< widest fan-out seen
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t arena_peak_bytes = 0;  ///< largest single-arena high-water
};

TotalsRegistry& totals_registry() {
  static TotalsRegistry registry;
  return registry;
}

void record_campaign(const CampaignStats& stats,
                     const std::vector<double>& cell_s) {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  reg.cell_s.insert(reg.cell_s.end(), cell_s.begin(), cell_s.end());
  reg.threads = std::max(reg.threads, stats.threads);
  reg.wall_s += stats.wall_s;
  reg.cpu_s += stats.cpu_s;
  reg.arena_peak_bytes =
      std::max(reg.arena_peak_bytes, stats.arena_peak_bytes);
}

/// Each worker owns one arena for every cell it runs; resetting rewinds
/// the bump pointer while keeping the grown chunks, so only a worker's
/// first cell pays allocation at all.
util::Arena& worker_arena() {
  thread_local util::Arena arena;
  return arena;
}

/// Lock-free running max for the campaign-wide arena high-water mark.
void raise_peak(std::atomic<std::size_t>& peak, std::size_t candidate) {
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (candidate > seen && !peak.compare_exchange_weak(
                                 seen, candidate, std::memory_order_relaxed)) {
  }
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

/// The slots of an unchecked grid: run_cell fills every one (a failed
/// cell aborts), so none is empty.
[[nodiscard]] std::vector<RunMeasurement> unwrap(CampaignResult grid) {
  std::vector<RunMeasurement> out;
  out.reserve(grid.measurements.size());
  for (std::optional<RunMeasurement>& slot : grid.measurements) {
    out.push_back(std::move(*slot));
  }
  return out;
}

/// Order statistics + totals fill shared by the sync and async paths.
void finalize_stats(CampaignStats& accounting,
                    const std::vector<double>& cell_s) {
  std::vector<double> sorted = cell_s;
  std::sort(sorted.begin(), sorted.end());
  for (const double s : sorted) accounting.cpu_s += s;
  accounting.cell_p50_s = stats::percentile_sorted(sorted, 0.50);
  accounting.cell_p95_s = stats::percentile_sorted(sorted, 0.95);
  record_campaign(accounting, cell_s);
}

/// One grid in flight (DESIGN.md §14), shared by every task of the grid:
/// the last reference to drop frees it, and with it any skeleton a group
/// still holds.
struct Grid {
  // The plan, fixed before the first task starts.
  std::shared_ptr<const SensitivityEngine> engine_owner;  ///< async only
  const SensitivityEngine* engine = nullptr;
  std::optional<workload::CompiledTrace> compiled;  ///< empty for no cells
  std::vector<CampaignCell> owned_cells;            ///< async only
  const std::vector<CampaignCell>* cells = nullptr;
  /// Placement groups, each in cell order with its leader first; all
  /// singletons when skeleton sharing is off.
  std::vector<std::vector<std::size_t>> groups;
  bool checked = false;
  const util::CancelToken* cancel = nullptr;
  /// Where tasks run: this scheduler group, or — on the serial path, when
  /// null — directly on the thread that submits them.
  util::TaskScheduler::Group* group = nullptr;

  // Async only: the group to keep alive, the merge continuation and the
  // shape it folds the cells back into.
  std::shared_ptr<util::TaskScheduler::Group> group_owner;
  std::function<void(CampaignRunner::AsyncOutcome)> done;
  std::size_t num_placements = 0;
  int repeats = 0;
  util::WallTimer wall;

  // Slot-indexed results: cell i writes only slot i, so the merge order is
  // the cell order whatever the schedule.
  std::vector<std::optional<RunMeasurement>> slots;
  std::vector<std::optional<CellFailure>> failed;
  std::vector<double> cell_s;
  std::atomic<std::size_t> arena_peak{0};
  std::atomic<std::size_t> remaining{0};  ///< tasks queued or running
  std::mutex error_mu;
  std::exception_ptr error;  ///< first exception a task let escape

  [[nodiscard]] bool canceled() const {
    return cancel != nullptr && cancel->canceled();
  }

  /// The accounting the plan fixes: `workers` bounded by the widest
  /// fan-out, C cells less one per shared group (see CampaignStats).
  [[nodiscard]] CampaignStats plan_stats(std::size_t workers) const {
    std::size_t width = cells->size();
    for (const std::vector<std::size_t>& g : groups) width -= g.size() > 1;
    CampaignStats stats;
    stats.cells = cells->size();
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

/// Lays out the grid's plan and result slots. With `share`, every cell
/// joins the group of the first earlier cell with an equal placement —
/// content equality, since cells carry copies — so the partition depends
/// on the cells alone, never on threads or scheduling.
void plan_grid(Grid& g, bool share) {
  const std::vector<CampaignCell>& cells = *g.cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto same = [&](const std::vector<std::size_t>& group) {
      return cells[group.front()].placement == cells[i].placement;
    };
    const auto it =
        share ? std::find_if(g.groups.begin(), g.groups.end(), same)
              : g.groups.end();
    if (it == g.groups.end()) {
      g.groups.push_back({i});
    } else {
      it->push_back(i);
    }
  }
  g.slots.resize(cells.size());
  g.failed.resize(cells.size());
  g.cell_s.assign(cells.size(), 0.0);
}

/// One attempt at cell `cell`: a follower's skeleton replay when `follow`
/// is set, else a full replay that records a skeleton into `record` when
/// asked.
util::Result<RunMeasurement> replay_cell(Grid& g, const CampaignCell& cell,
                                         int attempt,
                                         const ReplaySkeleton* follow,
                                         ReplaySkeleton* record) {
  // An attempt's state is fully torn down before the next starts, so the
  // rewind is safe between attempts too.
  util::Arena& arena = worker_arena();
  arena.reset();
  util::Result<RunMeasurement> run =
      follow != nullptr
          ? g.engine->replay_skeleton(*g.compiled, cell.placement, cell.repeat,
                                      *follow, &arena)
          : g.engine->try_run_once(*g.compiled, cell.placement, cell.repeat,
                                   attempt, &arena, record);
  // Deallocation is a no-op, so bytes_allocated() still reports the
  // attempt's full footprint after its state is gone.
  raise_peak(g.arena_peak, arena.bytes_allocated());
  return run;
}

/// The one attempt path every cell takes. A checked grid accepts a run
/// only when it succeeded AND absorbed zero fault events — the condition
/// under which it is bit-identical to the fault-free campaign — retries
/// once under an attempt-shifted fault stream, then quarantines the cell.
/// An unchecked grid (run()) takes attempt 0 as it comes. Only attempt 0
/// follows a skeleton or records one; a retry is always a full replay.
void run_cell(Grid& g, std::size_t i, const ReplaySkeleton* follow,
              ReplaySkeleton* record) {
  faultinject::chaos_cell_delay(i);
  // Thread-CPU time, not wall: a cell's cost must not include the time its
  // worker spent descheduled, or an oversubscribed scheduler would
  // fabricate speedup.
  util::ThreadCpuTimer timer;
  const CampaignCell& cell = (*g.cells)[i];
  const int attempts = g.checked ? 2 : 1;
  util::Error last_error;
  faultinject::FaultStats last_stats;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    util::Result<RunMeasurement> run =
        replay_cell(g, cell, attempt, attempt == 0 ? follow : nullptr,
                    attempt == 0 ? record : nullptr);
    if (!g.checked) {
      MNEMO_ASSERT(run.ok() && "run requires cells that cannot fail");
    }
    if (!g.checked || (run.ok() && run.value().faults.events() == 0)) {
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
  f.attempts = attempts;
  f.error = std::move(last_error);
  f.faults = last_stats;
  g.failed[i] = std::move(f);
  g.cell_s[i] = timer.elapsed_s();
}

void merge_async_grid(const std::shared_ptr<Grid>& g);

/// Drop one task's hold on the grid. The last one out hands an async grid
/// to its merge continuation — submitted from inside a still-counted task,
/// so the scheduler never observes a quiescent gap mid-campaign.
void release(const std::shared_ptr<Grid>& g) {
  if (--g->remaining == 0 && g->done) {
    g->group->submit(util::TaskScheduler::TaskClass::kRequest,
                     [g] { merge_async_grid(g); });
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
/// skeleton lives in storage the group owns, not in the worker's arena —
/// the next cell on this worker resets that arena while siblings may still
/// be reading — and the last sibling task to finish frees it. A leader
/// that failed, or whose run evicted or expired anything, publishes
/// nothing: its siblings replay fully (reproducing its error, if any).
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

/// Queue every group's leader. A hold on the grid keeps it from settling
/// while leaders are still being queued.
void launch(const std::shared_ptr<Grid>& g) {
  ++g->remaining;
  for (std::size_t group = 0; group < g->groups.size(); ++group) {
    submit(g, [g, group] { lead(g, group); });
  }
  release(g);
}

/// The async merge continuation: runs once, as a kRequest task, after the
/// last cell settles. Mirrors the synchronous tail exactly (including
/// skipping the totals ledger for canceled campaigns).
void merge_async_grid(const std::shared_ptr<Grid>& g) {
  CampaignRunner::AsyncOutcome outcome;
  outcome.stats = g->plan_stats(g->group->scheduler().threads());
  outcome.stats.wall_s = g->wall.elapsed_s();
  outcome.stats.arena_peak_bytes =
      g->arena_peak.load(std::memory_order_relaxed);
  if (g->canceled()) {
    outcome.error =
        std::make_exception_ptr(util::CanceledError(g->cancel->reason()));
  } else if (g->error != nullptr) {
    outcome.error = g->error;
  } else if (!g->cells->empty()) {
    finalize_stats(outcome.stats, g->cell_s);
    outcome.grid =
        merge_placement_grid(g->take_result(), g->num_placements, g->repeats);
  }
  const std::function<void(CampaignRunner::AsyncOutcome)> done =
      std::move(g->done);
  done(std::move(outcome));
}

}  // namespace

double CampaignStats::speedup() const {
  return wall_s > 0.0 ? cpu_s / wall_s : 0.0;
}

double CampaignStats::occupancy() const {
  return threads > 0 ? speedup() / static_cast<double>(threads) : 0.0;
}

void CampaignStats::merge(const CampaignStats& other) {
  // p50/p95 cannot be merged from summaries; keep a cell-weighted blend
  // as the closest order statistic available to a summary-only merge.
  const auto total = static_cast<double>(cells + other.cells);
  if (total > 0.0) {
    const auto wa = static_cast<double>(cells) / total;
    const auto wb = static_cast<double>(other.cells) / total;
    cell_p50_s = cell_p50_s * wa + other.cell_p50_s * wb;
    cell_p95_s = cell_p95_s * wa + other.cell_p95_s * wb;
  }
  cells += other.cells;
  threads = std::max(threads, other.threads);
  wall_s += other.wall_s;
  cpu_s += other.cpu_s;
  arena_peak_bytes = std::max(arena_peak_bytes, other.arena_peak_bytes);
}

std::string CampaignStats::render(const std::string& title) const {
  util::TablePrinter table({title, "value"});
  table.add_row({"cells run", std::to_string(cells)});
  table.add_row({"threads", std::to_string(threads)});
  table.add_row({"arena peak (KiB)",
                 util::TablePrinter::num(
                     static_cast<double>(arena_peak_bytes) / 1024.0, 1)});
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

CampaignResult CampaignRunner::execute(const SensitivityEngine& engine,
                                       const workload::Trace& trace,
                                       const std::vector<CampaignCell>& cells,
                                       bool checked) {
  const auto g = std::make_shared<Grid>();
  g->engine = &engine;
  g->cells = &cells;
  g->checked = checked;
  g->cancel = cancel_;
  // Fault plans are placement-crossing (a poisoned read remaps its key
  // mid-run), so an armed plan makes every cell its own task.
  plan_grid(*g, engine.config().faults.empty());
  stats_ = g->plan_stats(threads_);
  if (cells.empty()) return {};

  // Compile once per campaign: the per-key hashes/digests/byte streams are
  // placement- and repeat-invariant, so every cell shares one read-only
  // artifact instead of re-deriving them (DESIGN.md §12).
  g->compiled.emplace(trace);

  util::WallTimer wall;
  // One executor for the whole grid: a transient scheduler sized by the
  // fan-out, or (fan-out 1) the caller alone — the serial reference
  // schedule every parallel run matches.
  std::optional<util::TaskScheduler> sched;
  std::shared_ptr<util::TaskScheduler::Group> group;
  if (stats_.threads > 1) {
    group = sched.emplace(stats_.threads).make_group();
    g->group = group.get();
  }
  launch(g);
  if (sched) sched->help_until([&] { return g->remaining == 0; });
  stats_.wall_s = wall.elapsed_s();
  if (cancel_ != nullptr && cancel_->canceled()) {
    throw util::CanceledError(cancel_->reason());
  }
  if (g->error != nullptr) std::rethrow_exception(g->error);

  stats_.arena_peak_bytes = g->arena_peak.load(std::memory_order_relaxed);
  finalize_stats(stats_, g->cell_s);
  return g->take_result();
}

std::vector<RunMeasurement> CampaignRunner::run(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<CampaignCell>& cells) {
  return unwrap(execute(engine, trace, cells, /*checked=*/false));
}

CampaignResult CampaignRunner::run_checked(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<CampaignCell>& cells) {
  return execute(engine, trace, cells, /*checked=*/true);
}

CampaignResult CampaignRunner::measure_grid_checked(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  const int repeats = engine.config().repeats;
  const std::vector<CampaignCell> cells = build_grid_cells(placements, repeats);
  return merge_placement_grid(run_checked(engine, trace, cells),
                              placements.size(), repeats);
}

void CampaignRunner::measure_grid_checked_async(
    std::shared_ptr<const SensitivityEngine> engine,
    const workload::Trace& trace,
    std::vector<hybridmem::Placement> placements,
    const util::CancelToken* cancel,
    std::shared_ptr<util::TaskScheduler::Group> group,
    std::function<void(AsyncOutcome)> done) {
  const auto g = std::make_shared<Grid>();
  g->repeats = engine->config().repeats;
  g->num_placements = placements.size();
  g->owned_cells = build_grid_cells(placements, g->repeats);
  g->cells = &g->owned_cells;
  g->engine = engine.get();
  g->engine_owner = std::move(engine);
  g->checked = true;
  g->cancel = cancel;
  g->group_owner = std::move(group);
  g->group = g->group_owner.get();
  g->done = std::move(done);
  plan_grid(*g, g->engine->config().faults.empty());
  if (!g->cells->empty()) g->compiled.emplace(trace);
  // A degenerate grid still settles through launch() and release(), so
  // callers observe one asynchronous completion path.
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

std::vector<RunMeasurement> CampaignRunner::measure_grid(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  const int repeats = engine.config().repeats;
  const std::vector<CampaignCell> cells = build_grid_cells(placements, repeats);
  return unwrap(merge_placement_grid(
      execute(engine, trace, cells, /*checked=*/false), placements.size(),
      repeats));
}

CampaignStats campaign_totals() {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  CampaignStats totals;
  totals.cells = reg.cell_s.size();
  totals.threads = reg.threads;
  totals.wall_s = reg.wall_s;
  totals.cpu_s = reg.cpu_s;
  totals.arena_peak_bytes = reg.arena_peak_bytes;
  if (!reg.cell_s.empty()) {
    std::vector<double> sorted = reg.cell_s;
    std::sort(sorted.begin(), sorted.end());
    totals.cell_p50_s = stats::percentile_sorted(sorted, 0.50);
    totals.cell_p95_s = stats::percentile_sorted(sorted, 0.95);
  }
  return totals;
}

void reset_campaign_totals() {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  reg.cell_s.clear();
  reg.threads = 0;
  reg.wall_s = 0.0;
  reg.cpu_s = 0.0;
  reg.arena_peak_bytes = 0;
}

}  // namespace mnemo::core
