#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sensitivity_engine.hpp"
#include "faultinject/fault_plan.hpp"
#include "hybridmem/placement.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "util/task_scheduler.hpp"
#include "workload/trace.hpp"

namespace mnemo::core {

/// One cell of a measurement grid: execute `placement` once with the
/// engine's seed shifted by `repeat` (exactly what try_run_once does).
struct CampaignCell {
  hybridmem::Placement placement;
  int repeat = 0;
};

/// Ledger entry for a campaign cell quarantined by the fault-injection
/// campaign: the cell either errored out (typed error preserved) or its
/// measurement absorbed fault events — meaning it is *not* bit-identical
/// to the fault-free platform — on both the first run and the one retry.
struct CellFailure {
  std::size_t cell = 0;       ///< index into the campaign's cell vector
  std::size_t fast_keys = 0;  ///< identifies the placement of the cell
  int repeat = 0;             ///< seed shift of the cell
  int attempts = 0;           ///< runs consumed (first try + retries)
  util::Error error;          ///< why the final attempt was rejected
  faultinject::FaultStats faults;  ///< events the final attempt absorbed

  [[nodiscard]] bool operator==(const CellFailure&) const = default;
};

/// "cell #N (fast keys F, repeat R) quarantined: <error>" — how the CLI's
/// fault-policy abort and CellQuarantinedError name a quarantined cell.
[[nodiscard]] std::string describe(const CellFailure& failure);

/// What run() and measure_grid() throw when a cell was quarantined: they
/// return one measurement per cell (or placement), and a quarantined cell
/// has none. Carries the ledger entry of the first quarantined cell.
class CellQuarantinedError : public std::runtime_error {
 public:
  explicit CellQuarantinedError(CellFailure failure);

  [[nodiscard]] const CellFailure& failure() const noexcept {
    return failure_;
  }

 private:
  CellFailure failure_;
};

/// Outcome of a checked (fault-aware) campaign: one slot per cell, where a
/// quarantined cell is nullopt and described in `failures` instead. Every
/// populated measurement is bit-identical to the fault-free campaign's —
/// that is the acceptance rule, not a best effort (see run_checked).
struct CampaignResult {
  std::vector<std::optional<RunMeasurement>> measurements;  ///< cell order
  std::vector<CellFailure> failures;                        ///< cell order

  [[nodiscard]] bool partial() const noexcept { return !failures.empty(); }
};

/// Render the quarantine ledger as a util::table (one row per cell).
[[nodiscard]] std::string render_failure_ledger(
    const std::vector<CellFailure>& failures);

/// Timing/occupancy accounting of a measurement campaign. All numbers are
/// real wall-clock of the *tool itself* (like Table IV), never the
/// simulated clock, so they are safe to print without perturbing results.
struct CampaignStats {
  std::size_t cells = 0;  ///< simulation runs fanned out
  /// Widest fan-out the grid could use: min(workers, the most cells
  /// runnable at once). A follower never overlaps its own leader, so a
  /// grid of C cells in S shared placement groups runs at most C − S at
  /// once. Computed from the plan, never observed, so it is deterministic.
  std::size_t threads = 0;
  double wall_s = 0.0;      ///< end-to-end wall time of the campaign
  double cpu_s = 0.0;       ///< sum of per-cell wall times
  double cell_p50_s = 0.0;  ///< median cell duration
  double cell_p95_s = 0.0;  ///< p95 cell duration

  /// cpu / wall: average number of cells in flight — the wall-clock
  /// speedup over running the same cells serially.
  [[nodiscard]] double speedup() const;

  /// speedup / threads: fraction of the worker pool kept busy.
  [[nodiscard]] double occupancy() const;

  /// Render as a util::table (one metric per row).
  [[nodiscard]] std::string render(const std::string& title) const;
};

/// The campaign runner: takes a set of (placement, repeat) cells and
/// submits them to a util::TaskScheduler as shared-nothing tasks, one
/// placement group at a time (DESIGN.md §12, §14): the grid's trace is
/// compiled once and shared read-only, a group's leader is one task that
/// replays fully with the skeleton tap armed, and each of its repeat
/// siblings becomes a task of its own that replays the published skeleton
/// through its own noise streams. Every cell builds its own
/// deployment (or noise streams) from its own seed, and results are merged
/// in the fixed cell order — so aggregates are bit-identical to the serial
/// path at any thread count. Every sweep-shaped feature (baselines,
/// validation sweeps, sharding) should go through here rather than
/// hand-rolling a parallel loop over measurements.
class CampaignRunner {
 public:
  /// `threads` = 0 picks hardware concurrency; the fan-out never exceeds
  /// the cells runnable at once. `cancel` (optional, not owned, must
  /// outlive the runner's calls) makes every run a cooperative
  /// cancellation point: the token is checked before every leader and
  /// every follower task — a cell that has started always finishes, so the
  /// cells that did complete are bit-identical to an uncanceled campaign —
  /// and a canceled run throws util::CanceledError instead of returning,
  /// so partial grids can never flow into caches or artifacts.
  ///
  /// Every synchronous entry point is a join over the same grid core the
  /// async path uses: the grid runs on one transient scheduler sized by
  /// its fan-out, the calling thread helping — or, when the fan-out is 1,
  /// as a plain loop on the caller that spawns no threads.
  explicit CampaignRunner(std::size_t threads = 0,
                          const util::CancelToken* cancel = nullptr);

  /// run_checked() without the ledger, for callers that expect no
  /// failure: one measurement per cell, in cell order regardless of
  /// scheduling. A quarantined cell throws CellQuarantinedError naming
  /// it — under a fault-free engine, a cell whose run failed.
  [[nodiscard]] std::vector<RunMeasurement> run(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<CampaignCell>& cells);

  /// The grid with its failure ledger. The one attempt rule: a cell is
  /// accepted only when its run succeeds AND absorbed zero fault events —
  /// the condition under which it is bit-identical to the fault-free
  /// campaign. A rejected cell is retried exactly once with an
  /// attempt-shifted fault stream (the workload seed never changes), then
  /// quarantined into the failure ledger while the remaining cells
  /// complete. With an empty plan every successful cell is accepted on
  /// its first attempt. Deterministic at any thread count.
  [[nodiscard]] CampaignResult run_checked(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<CampaignCell>& cells);

  /// Checked counterpart of measure_grid: each placement's repeats are
  /// averaged only if *every* repeat was accepted — a partial average
  /// would not be bit-identical to the fault-free grid, so one quarantined
  /// repeat quarantines the whole placement (nullopt slot). The failure
  /// ledger indexes cells of the underlying repeat-major grid.
  [[nodiscard]] CampaignResult measure_grid_checked(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<hybridmem::Placement>& placements);

  /// The {placement × repeat} grid behind measure()/baselines(): each
  /// placement runs engine.config().repeats times (repeat-major within a
  /// placement) and the repeats are averaged. Returns one merged
  /// measurement per placement, in placement order; a quarantined cell
  /// throws CellQuarantinedError, as in run().
  [[nodiscard]] std::vector<RunMeasurement> measure_grid(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<hybridmem::Placement>& placements);

  /// What measure_grid_checked_async hands its continuation: either the
  /// merged grid + accounting, or the exception the synchronous path
  /// would have thrown (util::CanceledError for canceled campaigns),
  /// preserved as-is so callers keep one error-mapping path.
  struct AsyncOutcome {
    std::exception_ptr error;  ///< null on success
    CampaignResult grid;       ///< one slot per placement (merged repeats)
    CampaignStats stats;
  };

  /// Continuation-based counterpart of measure_grid_checked for the serve
  /// scheduler: submits the {placement × repeat} grid's placement groups
  /// to `group` — the same grid core as the synchronous path — and returns
  /// immediately; no thread blocks on the campaign. After the last cell
  /// settles, the merge runs as a kRequest task of the same group and
  /// invokes `done` exactly once with the outcome (bit-identical to what
  /// measure_grid_checked would have returned). `engine` is kept alive by
  /// the in-flight cells; `trace` must outlive `done`. `cancel` follows
  /// the same contract as the synchronous path.
  static void measure_grid_checked_async(
      std::shared_ptr<const SensitivityEngine> engine,
      const workload::Trace& trace,
      std::vector<hybridmem::Placement> placements,
      const util::CancelToken* cancel,
      std::shared_ptr<util::TaskScheduler::Group> group,
      std::function<void(AsyncOutcome)> done);

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Accounting of the most recent run()/measure_grid() on this runner.
  [[nodiscard]] const CampaignStats& stats() const noexcept { return stats_; }

 private:
  std::size_t threads_;
  const util::CancelToken* cancel_;
  CampaignStats stats_;
};

/// Process-wide aggregate over every campaign run so far (thread-safe);
/// what the CLI's --stats and the bench footers print. Its cell p50/p95
/// come from a fixed-size log histogram of the cell durations: within one
/// bucket (a factor of 10^(1/20), about 12 %) of the exact percentiles.
[[nodiscard]] CampaignStats campaign_totals();
void reset_campaign_totals();

}  // namespace mnemo::core
