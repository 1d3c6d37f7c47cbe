#include "core/slo_advisor.hpp"

#include "util/assert.hpp"

namespace mnemo::core {

std::string_view to_string(SloOutcome outcome) {
  switch (outcome) {
    case SloOutcome::kChosen:
      return "chosen";
    case SloOutcome::kNoFeasibleSplit:
      return "no_feasible_split";
  }
  return "?";
}

SloAdvisor::SloAdvisor(double permissible_slowdown)
    : slowdown_(permissible_slowdown) {
  MNEMO_EXPECTS(permissible_slowdown > -1.0 && permissible_slowdown < 1.0);
}

SloResult SloAdvisor::advise(const EstimateCurve& curve,
                             const PerfBaselines& baselines) const {
  MNEMO_EXPECTS(!curve.points.empty());
  const double floor_throughput =
      baselines.fast.throughput_ops * (1.0 - slowdown_);

  const EstimatePoint* best = nullptr;
  for (const EstimatePoint& p : curve.points) {
    if (p.est_throughput_ops < floor_throughput) continue;
    // Strictly cheaper wins; equal cost breaks toward the smaller FastMem
    // footprint (the split that is cheaper to provision).
    if (best == nullptr || p.cost_factor < best->cost_factor ||
        (p.cost_factor == best->cost_factor &&
         p.fast_bytes < best->fast_bytes)) {
      best = &p;
    }
  }
  if (best == nullptr) return SloResult{SloOutcome::kNoFeasibleSplit, {}};

  SloChoice choice;
  choice.point = *best;
  choice.slowdown_vs_fast =
      1.0 - best->est_throughput_ops / baselines.fast.throughput_ops;
  choice.cost_factor = best->cost_factor;
  choice.savings_vs_fast = 1.0 - best->cost_factor;
  return SloResult{SloOutcome::kChosen, choice};
}

}  // namespace mnemo::core
