#pragma once

#include <cstdint>

#include "core/baselines.hpp"
#include "core/sensitivity_engine.hpp"
#include "workload/trace.hpp"

namespace mnemo::core {

/// Configuration of the epoch-based dynamic re-tiering extension
/// ("MnemoDyn"). The paper's Mnemo produces *static* placements only and
/// notes that News-Feed-style workloads — whose hot set keeps moving —
/// cannot profit from them. This engine closes that gap: it re-tieres at
/// fixed request epochs using exponentially decayed accesses/size scores,
/// within a fixed FastMem byte budget and a per-epoch migration budget.
struct MigrationConfig {
  std::uint64_t fast_budget_bytes = 0;  ///< fixed FastMem capacity (required)
  std::size_t epoch_requests = 5'000;   ///< re-tier cadence
  /// Max bytes migrated per epoch (caps the disruption); 0 = unlimited.
  std::uint64_t migration_bytes_per_epoch = 0;
  /// Whether migrations stall the client (foreground) or only their
  /// simulated cost is reported separately (background copy).
  bool foreground = true;
  /// Predictive tracking: estimate the hot zone's drift velocity from the
  /// circular centroid of successive epochs' accesses and select the
  /// FastMem set from scores shifted one epoch *ahead*. Without this, a
  /// reactive controller always promotes yesterday's hot keys and loses
  /// the recency-skewed mass of drifting (News-Feed-like) workloads.
  /// No-op on stationary workloads (estimated velocity ~ 0).
  bool predictive = true;
};

/// Outcome of a dynamically tiered run.
struct MigrationResult {
  RunMeasurement measurement;  ///< client view (includes stalls if foreground)
  std::size_t epochs = 0;
  std::uint64_t migrations = 0;        ///< keys moved
  std::uint64_t bytes_migrated = 0;
  double migration_ns = 0.0;           ///< simulated time spent migrating
  std::uint64_t rejected_moves = 0;    ///< destination-full promotions
  /// Requests dropped because their read exhausted the fault plan's
  /// transient retries, or because their write did not fit its node (0 on
  /// a healthy platform whose nodes hold the dataset).
  std::uint64_t failed_requests = 0;
};

/// Epoch-based dynamic tierer over the dual-server deployment.
class DynamicTierer {
 public:
  DynamicTierer(SensitivityConfig sensitivity, MigrationConfig migration);

  /// Execute the trace with dynamic re-tiering. The initial placement
  /// fills the FastMem budget in key-ID order (no workload foresight —
  /// the controller has to learn the hot set online). Throws
  /// std::runtime_error carrying the typed error's text when that
  /// placement's dataset overflows a node.
  [[nodiscard]] MigrationResult run(const workload::Trace& trace) const;

  /// Static reference point: the best *oracle* static placement for the
  /// same budget (whole-trace accesses/size priority), measured with the
  /// same engine — what Mnemo/MnemoT would deploy. Throws
  /// std::runtime_error carrying the typed error's text when the run
  /// fails (a record its node cannot fit, loaded or inserted).
  [[nodiscard]] RunMeasurement run_static_oracle(
      const workload::Trace& trace) const;

  [[nodiscard]] const MigrationConfig& migration_config() const noexcept {
    return migration_;
  }

 private:
  /// Builds the tierer's deployment by the engine's own recipe.
  SensitivityEngine engine_;
  MigrationConfig migration_;
};

}  // namespace mnemo::core
