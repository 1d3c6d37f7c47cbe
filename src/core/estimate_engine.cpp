#include "core/estimate_engine.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace mnemo::core {

const EstimatePoint& EstimateCurve::at_budget(
    std::uint64_t fast_bytes) const {
  MNEMO_EXPECTS(!points.empty());
  const EstimatePoint* best = &points.front();
  for (const EstimatePoint& p : points) {
    if (p.fast_bytes <= fast_bytes) best = &p;
  }
  return *best;
}

double EstimateCurve::throughput_at(std::uint64_t fast_bytes) const {
  return at_budget(fast_bytes).est_throughput_ops;
}

std::string_view to_string(EstimateModel model) {
  return model == EstimateModel::kUniformDelta ? "uniform_delta"
                                               : "size_aware";
}

std::optional<EstimateModel> parse_estimate_model(std::string_view name) {
  if (name == "uniform") return EstimateModel::kUniformDelta;
  if (name == "size-aware") return EstimateModel::kSizeAware;
  return std::nullopt;
}

EstimateEngine::EstimateEngine(CostModel cost_model, EstimateModel model)
    : cost_model_(cost_model), model_(model) {}

EstimateCurve EstimateEngine::estimate(
    const AccessPattern& pattern, const std::vector<std::uint64_t>& order,
    const PerfBaselines& baselines) const {
  MNEMO_EXPECTS(order.size() == pattern.key_count());

  const double read_delta = baselines.read_delta_ns();
  const double write_delta = baselines.write_delta_ns();
  const auto requests = static_cast<double>(baselines.slow.requests);
  const std::uint64_t total_bytes = pattern.total_bytes();

  // Per-key refund when the key moves to FastMem.
  auto uniform_refund = [&](std::uint64_t key) {
    return static_cast<double>(pattern.reads[key]) * read_delta +
           static_cast<double>(pattern.writes[key]) * write_delta;
  };
  auto size_aware_refund = [&](std::uint64_t key) {
    const auto bytes = static_cast<double>(pattern.sizes[key]);
    const double dr = baselines.slow.read_vs_bytes.at(bytes) -
                      baselines.fast.read_vs_bytes.at(bytes);
    const double dw = baselines.slow.write_vs_bytes.at(bytes) -
                      baselines.fast.write_vs_bytes.at(bytes);
    return static_cast<double>(pattern.reads[key]) * dr +
           static_cast<double>(pattern.writes[key]) * dw;
  };

  std::vector<double> refunds(order.size());
  double total_refund = 0.0;
  const bool size_aware = model_ == EstimateModel::kSizeAware;
  for (std::size_t i = 0; i < order.size(); ++i) {
    refunds[i] = size_aware ? size_aware_refund(order[i])
                            : uniform_refund(order[i]);
    total_refund += refunds[i];
  }
  // Pin the curve to both measured baselines: scale the per-key refunds
  // so they sum exactly to the measured runtime gap. For the uniform
  // model this is an identity (factor 1 up to float error); for the
  // size-aware model it absorbs regression residuals. If the refunds are
  // degenerate (no size information at all), fall back to uniform deltas;
  // if those carry no signal either, spread the gap evenly over the keys.
  const double gap = baselines.slow.runtime_ns - baselines.fast.runtime_ns;
  if (total_refund <= 0.0 && size_aware) {
    total_refund = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      refunds[i] = uniform_refund(order[i]);
      total_refund += refunds[i];
    }
  }
  if (total_refund == 0.0) {
    refunds.assign(refunds.size(), 1.0);
    total_refund = static_cast<double>(refunds.size());
  }
  const double scale = total_refund != 0.0 ? gap / total_refund : 0.0;

  EstimateCurve curve;
  curve.points.reserve(order.size() + 1);

  double runtime = baselines.slow.runtime_ns;
  std::uint64_t fast_bytes = 0;

  auto emit = [&](std::uint64_t last_key, std::size_t fast_keys) {
    EstimatePoint p;
    p.last_key = last_key;
    p.fast_keys = fast_keys;
    p.fast_bytes = fast_bytes;
    p.est_runtime_ns = runtime;
    p.est_avg_latency_ns = runtime / requests;
    p.est_throughput_ops = requests / (runtime / 1e9);
    p.cost_factor = cost_model_.reduction(fast_bytes, total_bytes);
    curve.points.push_back(p);
  };

  emit(/*last_key=*/0, /*fast_keys=*/0);  // SlowMem-only bound
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint64_t key = order[i];
    runtime -= refunds[i] * scale;
    fast_bytes += pattern.sizes[key];
    emit(key, i + 1);
  }
  // With every key migrated the curve lands on the FastMem baseline by
  // construction (modulo accumulated float error).
  MNEMO_ENSURES(std::fabs(runtime - baselines.fast.runtime_ns) <
                0.001 * baselines.fast.runtime_ns + 1.0);
  return curve;
}

double estimate_error_pct(double real, double estimate) {
  MNEMO_EXPECTS(real != 0.0);
  return (real - estimate) / real * 100.0;
}

}  // namespace mnemo::core
