#pragma once

// Shared harness code for the per-figure bench binaries: capacity sweeps
// that pair Mnemo's analytical estimate with actual (simulated) execution
// of the same placements, the way the paper's Fig 5/8/9 pair estimate
// lines with measured points.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/mnemo.hpp"
#include "core/placement_engine.hpp"
#include "util/argparse.hpp"

namespace mnemo::bench {

/// The optional thread-count argument of a figure bench
/// (`./bench [threads]`): 0 — hardware concurrency — when absent. Anything
/// but a whole non-negative integer, or an extra argument, is a usage
/// error: a message naming the argument and exit 2.
inline std::size_t threads_arg(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [threads]\n", argv[0]);
    std::exit(2);
  }
  if (argc < 2) return 0;
  const std::optional<std::uint64_t> threads = util::parse_u64(argv[1]);
  if (!threads) {
    std::fprintf(stderr,
                 "%s: threads must be a non-negative integer, got '%s'\n",
                 argv[0], argv[1]);
    std::exit(2);
  }
  return static_cast<std::size_t>(*threads);
}

/// One measured-vs-estimated capacity point of a sweep.
struct SweepPoint {
  double cost_factor = 0.0;
  std::size_t fast_keys = 0;
  double est_throughput = 0.0;
  double meas_throughput = 0.0;
  double est_avg_latency_ns = 0.0;
  double meas_avg_latency_ns = 0.0;
  double meas_p95_ns = 0.0;
  double meas_p99_ns = 0.0;
  double throughput_error_pct = 0.0;  ///< (r - e)/r * 100
  double latency_error_pct = 0.0;
};

struct SweepResult {
  std::string workload;
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  core::MnemoReport report;
  std::vector<SweepPoint> points;  ///< includes both baselines
  core::CampaignStats stats;       ///< fan-out accounting of the sweep
};

/// Default measured fractions of the key-ordering prefix (the paper plots
/// ~8-10 measured markers per curve plus the two baselines).
inline std::vector<double> default_fractions() {
  return {0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};
}

/// Profile `trace` with Mnemo and validate the estimate at the given
/// prefix fractions by executing those placements. The validation runs
/// go through the campaign runner as one {placement × repeat} grid, so
/// they fan out across threads yet merge deterministically.
inline SweepResult run_sweep(const workload::Trace& trace,
                             kvstore::StoreKind store,
                             const core::MnemoConfig& base_config,
                             const std::vector<double>& fractions =
                                 default_fractions()) {
  core::MnemoConfig config = base_config;
  config.store = store;
  const core::Mnemo mnemo(config);

  SweepResult result;
  result.workload = trace.name();
  result.store = store;
  result.report = mnemo.profile(trace);

  std::vector<const core::EstimatePoint*> curve_points;
  std::vector<hybridmem::Placement> placements;
  curve_points.reserve(fractions.size());
  placements.reserve(fractions.size());
  for (const double fraction : fractions) {
    const auto idx = static_cast<std::size_t>(
        fraction *
        static_cast<double>(result.report.curve.points.size() - 1));
    const core::EstimatePoint& p = result.report.curve.points[idx];
    curve_points.push_back(&p);
    placements.push_back(
        core::PlacementEngine::placement_for(result.report.order, p));
  }

  core::CampaignRunner runner(config.threads);
  const std::vector<core::RunMeasurement> measured =
      runner.measure_grid(mnemo.sensitivity(), trace, placements);
  result.stats = runner.stats();

  result.points.resize(fractions.size());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const core::EstimatePoint& p = *curve_points[i];
    const core::RunMeasurement& m = measured[i];
    SweepPoint& sp = result.points[i];
    sp.cost_factor = p.cost_factor;
    sp.fast_keys = p.fast_keys;
    sp.est_throughput = p.est_throughput_ops;
    sp.meas_throughput = m.throughput_ops;
    sp.est_avg_latency_ns = p.est_avg_latency_ns;
    sp.meas_avg_latency_ns = m.avg_latency_ns;
    sp.meas_p95_ns = m.p95_ns;
    sp.meas_p99_ns = m.p99_ns;
    sp.throughput_error_pct =
        core::estimate_error_pct(m.throughput_ops, p.est_throughput_ops);
    sp.latency_error_pct =
        core::estimate_error_pct(m.avg_latency_ns, p.est_avg_latency_ns);
  }
  return result;
}

/// Footer every sweep bench prints: the process-wide campaign accounting
/// (cells, wall vs cpu, per-cell p50/p95, speedup/occupancy).
inline void print_campaign_totals() {
  std::printf("\n%s",
              core::campaign_totals().render("campaign totals").c_str());
}

/// Thin the full key-granularity estimate curve to `n` plot samples.
inline void sample_curve(const core::EstimateCurve& curve, std::size_t n,
                         std::vector<double>* xs, std::vector<double>* ys) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(
        static_cast<double>(i) / static_cast<double>(n - 1) *
        static_cast<double>(curve.points.size() - 1));
    xs->push_back(curve.points[idx].cost_factor);
    ys->push_back(curve.points[idx].est_throughput_ops);
  }
}

inline const char* store_label(kvstore::StoreKind kind) {
  switch (kind) {
    case kvstore::StoreKind::kVermilion:
      return "Redis-like (Vermilion)";
    case kvstore::StoreKind::kCachet:
      return "Memcached-like (Cachet)";
    case kvstore::StoreKind::kDynaStore:
      return "DynamoDB-like (DynaStore)";
  }
  return "?";
}

}  // namespace mnemo::bench
