#include "core/sensitivity_engine.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "stats/log_histogram.hpp"
#include "stats/regression.hpp"
#include "util/assert.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

SensitivityConfig::SensitivityConfig()
    : platform(hybridmem::paper_testbed()) {}

SensitivityEngine::SensitivityEngine(SensitivityConfig config)
    : config_(std::move(config)) {
  MNEMO_EXPECTS(config_.repeats >= 1);
}

hybridmem::EmulationProfile SensitivityEngine::sized_platform(
    std::uint64_t dataset_bytes) const {
  hybridmem::EmulationProfile platform = config_.platform;
  // Headroom for index/journal overhead and slab rounding: 2x dataset.
  const std::uint64_t need =
      std::max<std::uint64_t>(dataset_bytes * 2, 64ULL * 1024 * 1024);
  platform.fast.capacity_bytes =
      std::max(platform.fast.capacity_bytes, need);
  platform.slow.capacity_bytes =
      std::max(platform.slow.capacity_bytes, need);
  return platform;
}

kvstore::StoreConfig SensitivityEngine::store_config(int repeat) const {
  kvstore::StoreConfig store_cfg;
  store_cfg.seed = config_.seed + static_cast<std::uint64_t>(repeat) * 0x9e37;
  return store_cfg;
}

namespace {

/// One request class's sums over a cell's replay, taken in request order:
/// Σlatency and Σbytes·latency, the same addition chains stats::mean and
/// stats::fit_line's loop run over the class's latency stream. `bytes` is
/// the class's request-order byte stream from the compiled trace.
struct ClassSums {
  std::span<const double> bytes;
  std::size_t n = 0;
  double sum_lat = 0.0;
  double sum_bytes_lat = 0.0;

  void add(double latency) {
    sum_lat += latency;
    sum_bytes_lat += bytes[n++] * latency;
  }

  [[nodiscard]] double mean() const {
    return n == 0 ? 0.0 : sum_lat / static_cast<double>(n);
  }
};

/// Fit service ≈ a + b·bytes from the class's sums and the byte stream's
/// campaign-invariant x-side moments. Degenerate samples (empty, or a
/// single record size) collapse to a flat line at the mean, which makes
/// the size-aware estimate model coincide with the uniform-delta one.
stats::Line fit_service_line(const workload::ServiceFitMoments& x,
                             const ClassSums& y) {
  if (!x.distinct || y.n < 2) return stats::Line{y.mean(), 0.0};
  return stats::fit_line_sums(x.n, x.sum_x, x.sum_xx, y.sum_lat,
                              y.sum_bytes_lat);
}

util::Error empty_trace_error() {
  util::Error e;
  e.code = util::ErrorCode::kInvalidArgument;
  e.message = "trace has no requests to replay; measurement is undefined";
  return e;
}

/// The per-cell sample sink both full replay and skeleton replay feed, and
/// the statistics tail they share — so the two paths cannot drift apart.
/// add() touches each sample once: the runtime sum, the histogram, the
/// latency vector and its class's sums.
struct CompiledSamples {
  std::vector<double> latency;
  ClassSums reads;
  ClassSums writes;

  explicit CompiledSamples(const workload::CompiledTrace& compiled)
      : reads{compiled.read_bytes()}, writes{compiled.write_bytes()} {
    latency.reserve(compiled.request_count());
  }

  void add(RunMeasurement& m, workload::OpType op, double service_ns) {
    m.runtime_ns += service_ns;
    m.latency_hist.add(service_ns);
    latency.push_back(service_ns);
    (op == workload::OpType::kRead ? reads : writes).add(service_ns);
  }

  /// Derive every per-run statistic: means and fits from the class sums,
  /// the two tail ranks by selection above the histogram's p95 bucket
  /// (stats::tail_percentiles) — the same doubles a sort would index,
  /// pinned by the golden fixtures. Consumes the latency vector's order.
  [[nodiscard]] util::Status derive(RunMeasurement& m,
                                    const workload::CompiledTrace& compiled) {
    MNEMO_ASSERT(reads.n == reads.bytes.size() &&
                 writes.n == writes.bytes.size());
    m.reads = reads.n;
    m.writes = writes.n;
    m.avg_read_ns = reads.mean();
    m.avg_write_ns = writes.mean();
    m.read_vs_bytes = fit_service_line(compiled.read_fit(), reads);
    m.write_vs_bytes = fit_service_line(compiled.write_fit(), writes);
    if (!(m.runtime_ns > 0.0)) {
      // Every request cost 0ns (a degenerate profile): division would turn
      // avg_latency_ns/throughput_ops into NaN/inf and quietly poison every
      // downstream mean. Refuse with a typed error instead.
      util::Error e;
      e.code = util::ErrorCode::kFailedPrecondition;
      e.message = "run accumulated zero simulated runtime; "
                  "throughput and average latency are undefined";
      return e;
    }
    m.avg_latency_ns = m.runtime_ns / static_cast<double>(m.requests);
    m.throughput_ops =
        static_cast<double>(m.requests) / (m.runtime_ns / 1e9);
    const stats::TailPercentiles tail =
        stats::tail_percentiles(latency, m.latency_hist);
    m.p95_ns = tail.p95;
    m.p99_ns = tail.p99;
    return {};
  }
};

}  // namespace

util::Result<RunMeasurement> SensitivityEngine::try_run_once(
    const workload::CompiledTrace& compiled,
    const hybridmem::Placement& placement, int repeat, int attempt,
    ReplaySkeleton* record) const {
  MNEMO_EXPECTS(record == nullptr || config_.faults.empty());
  if (compiled.request_count() == 0) return empty_trace_error();

  hybridmem::HybridMemory memory(sized_platform(compiled.dataset_bytes()));
  kvstore::DualServer servers(memory, config_.store, store_config(repeat));
  {
    util::Status loaded = servers.populate(compiled, placement);
    if (!loaded.ok()) return loaded.error();
  }
  // The load phase should not pollute the measurement's cache state.
  memory.drop_caches();
  // Faults model degradation of the production serving window; the load
  // phase runs healthy, so a populate failure is always a genuine capacity
  // error. The stream folds in `attempt` so a quarantine retry redraws the
  // fault sequence while the store's service-jitter seed stays fixed.
  if (!config_.faults.empty()) {
    memory.arm_faults(config_.faults,
                      (static_cast<std::uint64_t>(repeat) << 16) +
                          static_cast<std::uint64_t>(attempt));
  }
  // The skeleton tap records each op's pre-noise service time in op
  // order: the cursor is shared by both instances, and populate is done.
  double* tap = nullptr;
  if (record != nullptr) {
    record->shareable = false;
    record->service_ns.resize(compiled.request_count());
    tap = record->service_ns.data();
    servers.fast().set_skeleton_tap(&tap);
    servers.slow().set_skeleton_tap(&tap);
  }

  RunMeasurement m;
  m.requests = compiled.request_count();
  CompiledSamples samples(compiled);
  const std::span<const std::uint64_t> hashes = compiled.key_hashes();
  // Replay off the compiled flat streams (1-byte ops + 4-byte keys) rather
  // than the Trace's Request structs, through the unchecked execute form —
  // every key was bounds-validated once when the Trace was built.
  const std::span<const workload::OpType> ops = compiled.ops();
  const std::span<const std::uint32_t> keys = compiled.keys();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint32_t key = keys[i];
    const util::Result<kvstore::OpResult> served =
        servers.execute(ops[i], key, {hashes[key]});
    if (!served.ok()) return served.error();
    const kvstore::OpResult r = served.value();
    MNEMO_ASSERT(r.ok && "all requested keys were populated");
    samples.add(m, ops[i], r.service_ns);
  }
  const util::Status derived = samples.derive(m, compiled);
  if (!derived.ok()) return derived.error();
  m.llc_hit_rate = memory.llc().hit_rate();
  m.faults = memory.fault_stats();
  if (record != nullptr) {
    MNEMO_ASSERT(tap == record->service_ns.data() + ops.size() &&
                 "one skeleton entry per replayed op");
    record->shareable = true;
    record->llc_hit_rate = m.llc_hit_rate;
    record->faults = m.faults;
  }
  return m;
}

util::Result<RunMeasurement> SensitivityEngine::replay_skeleton(
    const workload::CompiledTrace& compiled,
    const hybridmem::Placement& placement, int repeat,
    const ReplaySkeleton& skeleton) const {
  MNEMO_EXPECTS(skeleton.shareable &&
                skeleton.service_ns.size() == compiled.request_count());
  // The sibling's noise streams, reproduced instance-exactly: the same
  // profile resolution, seeds and rng type its own deployment would
  // construct (kvstore::ServiceNoise::for_instance is the one definition
  // both paths share).
  const kvstore::StoreConfig fast_cfg = store_config(repeat);
  kvstore::StoreConfig slow_cfg = fast_cfg;
  slow_cfg.seed ^= kvstore::DualServer::kSlowSeedMix;
  kvstore::ServiceNoise fast_noise =
      kvstore::ServiceNoise::for_instance(fast_cfg, config_.store);
  kvstore::ServiceNoise slow_noise =
      kvstore::ServiceNoise::for_instance(slow_cfg, config_.store);
  // Populate advances each instance's stream by one draw per loaded key
  // (DualServer::populate finalizes one put per key, in key order, routed
  // by the placement): replay that consumption so the streams enter the
  // measured run in the exact state the sibling's own deployment would.
  const std::uint64_t initial = compiled.initial_key_count();
  for (std::uint64_t key = 0; key < initial; ++key) {
    (placement.node_of(key) == hybridmem::NodeId::kFast ? fast_noise
                                                        : slow_noise)
        .apply(0.0);
  }

  RunMeasurement m;
  m.requests = compiled.request_count();
  CompiledSamples samples(compiled);
  const std::span<const workload::OpType> ops = compiled.ops();
  const std::span<const std::uint32_t> keys = compiled.keys();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const bool fast = placement.node_of(keys[i]) == hybridmem::NodeId::kFast;
    samples.add(m, ops[i],
                (fast ? fast_noise : slow_noise).apply(skeleton.service_ns[i]));
  }
  const util::Status derived = samples.derive(m, compiled);
  if (!derived.ok()) return derived.error();
  // The platform counters are the leader's: LLC decisions and the absence
  // of faults are functions of the placement, not of the seed.
  m.llc_hit_rate = skeleton.llc_hit_rate;
  m.faults = skeleton.faults;
  return m;
}

RunMeasurement SensitivityEngine::measure(
    const workload::Trace& trace,
    const hybridmem::Placement& placement) const {
  CampaignRunner runner(config_.threads);
  return runner.measure_grid(*this, trace, {placement}).front();
}

PerfBaselines SensitivityEngine::baselines(
    const workload::Trace& trace) const {
  CampaignRunner runner(config_.threads);
  const std::vector<RunMeasurement> merged = runner.measure_grid(
      *this, trace,
      {hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kFast),
       hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kSlow)});
  PerfBaselines b;
  b.fast = merged[0];
  b.slow = merged[1];
  return b;
}

}  // namespace mnemo::core
