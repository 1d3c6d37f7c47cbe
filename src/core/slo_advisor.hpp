#pragma once

#include <optional>
#include <string_view>

#include "core/baselines.hpp"
#include "core/estimate_engine.hpp"

namespace mnemo::core {

/// A chosen operating point: the cheapest configuration that satisfies the
/// performance SLO.
struct SloChoice {
  EstimatePoint point;
  double slowdown_vs_fast = 0.0;  ///< 1 - throughput/fast_throughput
  double cost_factor = 0.0;       ///< R(p) — lower is cheaper
  double savings_vs_fast = 0.0;   ///< 1 - cost_factor

  [[nodiscard]] friend bool operator==(const SloChoice&,
                                       const SloChoice&) = default;
};

/// What the advisor concluded — an explicit verdict, so "the SLO cannot be
/// met by any split" is a first-class result, not an empty optional the
/// caller has to interpret.
enum class SloOutcome : std::uint8_t {
  kChosen,          ///< a feasible split exists; `choice` holds it
  kNoFeasibleSplit,  ///< no point on the curve meets the SLO
};

std::string_view to_string(SloOutcome outcome);

/// Advisor verdict: the outcome plus the chosen point when one exists.
struct SloResult {
  SloOutcome outcome = SloOutcome::kNoFeasibleSplit;
  std::optional<SloChoice> choice;

  [[nodiscard]] bool feasible() const noexcept {
    return outcome == SloOutcome::kChosen;
  }
  [[nodiscard]] friend bool operator==(const SloResult&,
                                       const SloResult&) = default;
};

/// Finds the "sweet spot" the paper automates (Fig 9): the lowest-cost row
/// of a tradeoff curve whose estimated throughput stays within
/// `permissible_slowdown` of the FastMem-only baseline (default 10%, the
/// SLO used throughout the paper's evaluation). Cost ties break toward the
/// smaller FastMem footprint — the cheaper split to actually provision.
///
/// A negative permissible slowdown demands throughput *above* the
/// FastMem-only baseline — an SLO tighter than the best the platform
/// measured, which yields kNoFeasibleSplit on any curve bounded by the
/// fast baseline.
class SloAdvisor {
 public:
  static constexpr double kPaperSlowdown = 0.10;

  explicit SloAdvisor(double permissible_slowdown = kPaperSlowdown);

  /// Full verdict: cheapest SLO-satisfying point, or an explicit
  /// no-feasible-split outcome when even FastMem-only misses the floor.
  [[nodiscard]] SloResult advise(const EstimateCurve& curve,
                                 const PerfBaselines& baselines) const;

  [[nodiscard]] double permissible_slowdown() const noexcept {
    return slowdown_;
  }

 private:
  double slowdown_;
};

}  // namespace mnemo::core
