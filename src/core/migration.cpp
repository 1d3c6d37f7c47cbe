#include "core/migration.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/pattern_engine.hpp"
#include "core/tiering.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

DynamicTierer::DynamicTierer(SensitivityConfig sensitivity,
                             MigrationConfig migration)
    : engine_(std::move(sensitivity)), migration_(migration) {
  MNEMO_EXPECTS(migration_.fast_budget_bytes > 0);
  MNEMO_EXPECTS(migration_.epoch_requests > 0);
}

namespace {

/// Weight of the newest epoch in the decayed accesses/size scores.
constexpr double kEwmaAlpha = 0.6;

/// Hysteresis dead band: a currently-fast key is only demoted once it falls
/// out of the top `kKeepFactor x budget` of the ranking, so borderline keys
/// do not ping-pong between tiers every epoch.
constexpr double kKeepFactor = 1.25;

/// Circular mean position of the epoch's accesses over the key ring
/// [0, n): keys are mapped to angles so wrap-around (key n-1 -> key 0)
/// averages correctly. Returns a position in [0, n).
double circular_centroid(const std::vector<std::uint64_t>& counts) {
  const auto n = static_cast<double>(counts.size());
  double sx = 0.0;
  double sy = 0.0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const double theta = 2.0 * M_PI * static_cast<double>(k) / n;
    sx += static_cast<double>(counts[k]) * std::cos(theta);
    sy += static_cast<double>(counts[k]) * std::sin(theta);
  }
  if (sx == 0.0 && sy == 0.0) return 0.0;
  double angle = std::atan2(sy, sx);
  if (angle < 0.0) angle += 2.0 * M_PI;
  return angle / (2.0 * M_PI) * n;
}

/// Signed shortest ring distance from `from` to `to` over a ring of n.
double ring_delta(double from, double to, double n) {
  double d = to - from;
  while (d > n / 2.0) d -= n;
  while (d < -n / 2.0) d += n;
  return d;
}

RunMeasurement summarize(std::vector<double>& latencies,
                         std::uint64_t reads, std::uint64_t writes,
                         double runtime_ns) {
  RunMeasurement m;
  m.requests = latencies.size();
  m.reads = reads;
  m.writes = writes;
  m.runtime_ns = runtime_ns;
  m.avg_latency_ns = runtime_ns / static_cast<double>(m.requests);
  m.throughput_ops = static_cast<double>(m.requests) / (runtime_ns / 1e9);
  std::sort(latencies.begin(), latencies.end());
  m.p95_ns = stats::percentile_sorted(latencies, 0.95);
  m.p99_ns = stats::percentile_sorted(latencies, 0.99);
  return m;
}

}  // namespace

MigrationResult DynamicTierer::run(const workload::Trace& trace) const {
  const workload::CompiledTrace compiled(trace);
  const SensitivityConfig& sensitivity = engine_.config();
  hybridmem::HybridMemory memory(
      engine_.sized_platform(compiled.dataset_bytes()));
  kvstore::DualServer servers(memory, sensitivity.store,
                              engine_.store_config(0));

  // Initial placement: fill the budget in key-ID order (no foresight).
  std::vector<std::uint64_t> id_order(trace.key_count());
  std::iota(id_order.begin(), id_order.end(), 0);
  const auto initial = hybridmem::Placement::from_order_with_budget(
      id_order, trace.key_sizes(), migration_.fast_budget_bytes);
  {
    const util::Status loaded = servers.populate(compiled, initial);
    if (!loaded.ok()) throw std::runtime_error(loaded.error().to_string());
  }
  memory.drop_caches();
  // Same convention as the Sensitivity Engine: faults hit the serving
  // window, not the load phase. The dynamic tierer uses one deployment
  // for the whole trace, so a single stream suffices.
  if (!sensitivity.faults.empty()) {
    memory.arm_faults(sensitivity.faults, 0);
  }

  MigrationResult result;
  std::vector<double> scores(trace.key_count(), 0.0);
  std::vector<std::uint64_t> epoch_counts(trace.key_count(), 0);
  double prev_centroid = -1.0;
  double velocity = 0.0;  ///< keys/epoch the hot zone moves (EWMA-smoothed)
  // Keys beyond this are not inserted yet and cannot be migrated.
  std::uint64_t live_keys = trace.initial_key_count();
  std::vector<double> latencies;
  latencies.reserve(trace.requests().size());
  double runtime = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  auto retier = [&] {
    ++result.epochs;
    // Estimate the hot zone's drift before decaying the epoch counts.
    const double centroid = circular_centroid(epoch_counts);
    if (prev_centroid >= 0.0) {
      const double step = ring_delta(prev_centroid, centroid,
                                     static_cast<double>(trace.key_count()));
      velocity = 0.5 * velocity + 0.5 * step;
    }
    prev_centroid = centroid;

    // Decay history and absorb the finished epoch.
    for (std::uint64_t k = 0; k < trace.key_count(); ++k) {
      scores[k] = (1.0 - kEwmaAlpha) * scores[k] +
                  kEwmaAlpha * (static_cast<double>(epoch_counts[k]) /
                                static_cast<double>(trace.size_of(k)));
      epoch_counts[k] = 0;
    }

    // Selection scores: shifted one predicted epoch ahead, so the keys
    // about to become hot are promoted before their requests arrive.
    // Noise-gate sub-key velocities (stationary workloads).
    const std::vector<double>* selection = &scores;
    std::vector<double> predicted;
    const auto n = static_cast<std::int64_t>(trace.key_count());
    const auto shift = static_cast<std::int64_t>(std::llround(velocity));
    if (migration_.predictive && std::abs(shift) >= 1) {
      predicted.resize(trace.key_count());
      for (std::int64_t k = 0; k < n; ++k) {
        // Key k will look like key (k - shift) does now.
        const std::int64_t src = ((k - shift) % n + n) % n;
        predicted[static_cast<std::size_t>(k)] =
            scores[static_cast<std::size_t>(src)];
      }
      selection = &predicted;
    }

    // Desired fast set: greedy accesses/size order within the budget.
    std::vector<std::uint64_t> order(trace.key_count());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint64_t a, std::uint64_t b) {
                       if ((*selection)[a] != (*selection)[b]) {
                         return (*selection)[a] > (*selection)[b];
                       }
                       return a < b;
                     });
    // want_fast: the strict-budget target set. want_keep: the hysteresis
    // dead band — currently-fast keys inside it are not demoted even when
    // they slip out of the strict set, so borderline keys don't churn.
    std::vector<bool> want_fast(trace.key_count(), false);
    std::vector<bool> want_keep(trace.key_count(), false);
    const auto keep_budget = static_cast<std::uint64_t>(
        kKeepFactor * static_cast<double>(migration_.fast_budget_bytes));
    std::uint64_t strict_used = 0;
    std::uint64_t keep_used = 0;
    for (const std::uint64_t key : order) {
      const std::uint64_t size = trace.size_of(key);
      if (strict_used + size <= migration_.fast_budget_bytes) {
        strict_used += size;
        want_fast[key] = true;
      }
      if (keep_used + size <= keep_budget) {
        keep_used += size;
        want_keep[key] = true;
      }
    }
    // Demote first (frees capacity), then promote hottest-first, both
    // respecting the per-epoch migration byte cap. Promotions only go
    // ahead while the strict byte budget has room.
    std::uint64_t moved = 0;
    auto budget_left = [&] {
      return migration_.migration_bytes_per_epoch == 0 ||
             moved < migration_.migration_bytes_per_epoch;
    };
    std::uint64_t fast_bytes =
        servers.placement().bytes_on(hybridmem::NodeId::kFast,
                                     trace.key_sizes());
    for (std::uint64_t key = 0; key < live_keys && budget_left(); ++key) {
      if (!want_keep[key] &&
          servers.placement().node_of(key) == hybridmem::NodeId::kFast) {
        const util::Result<double> ns =
            servers.move_key(key, hybridmem::NodeId::kSlow);
        if (!ns.ok()) {
          // SlowMem full (or a faulting migration read exhausted its
          // retries): the key stays fast; try again next epoch.
          ++result.rejected_moves;
          continue;
        }
        result.migration_ns += ns.value();
        ++result.migrations;
        result.bytes_migrated += trace.size_of(key);
        moved += trace.size_of(key);
        fast_bytes -= trace.size_of(key);
      }
    }
    for (const std::uint64_t key : order) {
      if (!budget_left()) break;
      if (key >= live_keys || !want_fast[key] ||
          servers.placement().node_of(key) != hybridmem::NodeId::kSlow) {
        continue;
      }
      if (fast_bytes + trace.size_of(key) > keep_budget) continue;
      const util::Result<double> ns =
          servers.move_key(key, hybridmem::NodeId::kFast);
      if (!ns.ok()) {
        ++result.rejected_moves;
        continue;
      }
      result.migration_ns += ns.value();
      ++result.migrations;
      result.bytes_migrated += trace.size_of(key);
      moved += trace.size_of(key);
      fast_bytes += trace.size_of(key);
    }
  };

  std::size_t since_epoch = 0;
  const std::span<const workload::OpType> ops = compiled.ops();
  const std::span<const std::uint32_t> keys = compiled.keys();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const workload::OpType op = ops[i];
    const std::uint32_t key = keys[i];
    if (op == workload::OpType::kInsert) live_keys = key + 1;
    const util::Result<kvstore::OpResult> served =
        servers.execute(op, key, {compiled.key_hash(key)});
    if (!served.ok()) {
      // Transient retries exhausted, or a write its node could not fit:
      // the request is dropped, but the access still informs the tiering
      // scores — the client did ask.
      ++result.failed_requests;
      ++epoch_counts[key];
    } else {
      const kvstore::OpResult r = served.value();
      MNEMO_ASSERT(r.ok);
      runtime += r.service_ns;
      latencies.push_back(r.service_ns);
      ++epoch_counts[key];
      if (op == workload::OpType::kRead) {
        ++reads;
      } else {
        ++writes;
      }
    }
    if (++since_epoch >= migration_.epoch_requests) {
      since_epoch = 0;
      retier();
    }
  }
  if (migration_.foreground) runtime += result.migration_ns;
  result.measurement = summarize(latencies, reads, writes, runtime);
  return result;
}

RunMeasurement DynamicTierer::run_static_oracle(
    const workload::Trace& trace) const {
  const AccessPattern pattern = PatternEngine::analyze(trace);
  const auto order = TieringEngine::priority_order(pattern);
  const auto placement = hybridmem::Placement::from_order_with_budget(
      order, trace.key_sizes(), migration_.fast_budget_bytes);
  // The oracle is the *healthy* static reference: comparing a degraded
  // dynamic run against a degraded oracle would hide the fault penalty.
  SensitivityConfig healthy = engine_.config();
  healthy.faults = faultinject::FaultPlan{};
  const SensitivityEngine engine(healthy);
  util::Result<RunMeasurement> run =
      engine.try_run_once(workload::CompiledTrace(trace), placement);
  if (!run.ok()) throw std::runtime_error(run.error().to_string());
  return std::move(run.value());
}

}  // namespace mnemo::core
