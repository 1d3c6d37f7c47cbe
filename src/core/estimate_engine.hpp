#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/cost_model.hpp"
#include "core/pattern_engine.hpp"

namespace mnemo::core {

/// One row of Mnemo's output (Section IV "Interfacing with Mnemo"): after
/// tiering the first `fast_keys` keys of the ordering into FastMem, the
/// estimated performance and the memory-system cost factor.
struct EstimatePoint {
  std::uint64_t last_key = 0;    ///< key this row added to FastMem
  std::size_t fast_keys = 0;     ///< keys resident in FastMem
  std::uint64_t fast_bytes = 0;  ///< FastMem capacity this row implies
  double est_runtime_ns = 0.0;
  double est_throughput_ops = 0.0;
  double est_avg_latency_ns = 0.0;
  double cost_factor = 0.0;  ///< R(p) at this capacity split

  [[nodiscard]] friend bool operator==(const EstimatePoint&,
                                       const EstimatePoint&) = default;
};

/// The full tradeoff curve: row 0 is the SlowMem-only configuration, the
/// last row the FastMem-only one; each intermediate row moves one more key
/// of the ordering into FastMem.
struct EstimateCurve {
  std::vector<EstimatePoint> points;

  /// The point whose FastMem capacity is closest to `fast_bytes` from
  /// below (i.e. the configuration a budget of fast_bytes can realize).
  [[nodiscard]] const EstimatePoint& at_budget(std::uint64_t fast_bytes) const;

  /// Estimated throughput at a FastMem byte budget (convenience).
  [[nodiscard]] double throughput_at(std::uint64_t fast_bytes) const;

  [[nodiscard]] friend bool operator==(const EstimateCurve&,
                                       const EstimateCurve&) = default;
};

/// How a key's per-request SlowMem penalty ("refund" when it moves to
/// FastMem) is derived from the baselines.
enum class EstimateModel {
  /// The paper's model: every read refunds the workload-wide average
  /// read delta, every write the average write delta. Exact for
  /// homogeneous record sizes; biased when the ordering correlates with
  /// size (e.g. MnemoT's accesses/size priority on a mixed-size dataset).
  kUniformDelta,
  /// Per-key deltas from the baselines' service-vs-bytes regression
  /// lines, normalized so the curve still lands exactly on both measured
  /// baselines. Degenerates to kUniformDelta on homogeneous sizes.
  kSizeAware,
};

std::string_view to_string(EstimateModel model);

/// The model the CLI's --model and a serve request's "model" name:
/// "uniform" or "size-aware"; nullopt for any other name.
std::optional<EstimateModel> parse_estimate_model(std::string_view name);

/// The paper's Estimate Engine. Takes the performance baselines from the
/// Sensitivity Engine, the access pattern from the Pattern Engine, and the
/// cost-reduction factor p, and computes — analytically, in one pass —
/// the workload's estimated runtime/throughput for incremental tiering of
/// the key space:
///
///   runtime(prefix) = SlowRuntime
///     - sum_{key in FastMem prefix} [ reads(key)  * dr(key)
///                                   + writes(key) * dw(key) ]
///
/// i.e. every key moved to FastMem refunds its requests' SlowMem penalty;
/// dr/dw come from the EstimateModel. (The paper prints the model in
/// inverted delta form; this is the consistent reading — see DESIGN.md §3.)
class EstimateEngine {
 public:
  explicit EstimateEngine(CostModel cost_model = CostModel{},
                          EstimateModel model = EstimateModel::kSizeAware);

  /// Estimate along `order` (every prefix of it, key granularity).
  [[nodiscard]] EstimateCurve estimate(
      const AccessPattern& pattern, const std::vector<std::uint64_t>& order,
      const PerfBaselines& baselines) const;

  [[nodiscard]] EstimateModel model() const noexcept { return model_; }

  [[nodiscard]] const CostModel& cost_model() const noexcept {
    return cost_model_;
  }

 private:
  CostModel cost_model_;
  EstimateModel model_;
};

/// Percentage error between a real measurement r and estimate e, as the
/// paper tracks it: (r - e) / r * 100.
double estimate_error_pct(double real, double estimate);

}  // namespace mnemo::core
