#include "core/sensitivity_engine.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "stats/summary.hpp"
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

/// Fit service ≈ a + b·bytes with the campaign-invariant x-side work
/// (distinct scan + normal-equation moments) precomputed by CompiledTrace;
/// the byte stream is only re-read for the y-side products. Degenerate
/// samples (empty, or a single record size) collapse to a flat line at the
/// mean, which makes the size-aware estimate model coincide with the
/// uniform-delta one.
stats::Line fit_service_line(const workload::ServiceFitMoments& moments,
                             std::span<const double> bytes,
                             std::span<const double> latency) {
  if (latency.empty()) return stats::Line{};
  if (!moments.distinct || latency.size() < 2) {
    return stats::Line{stats::mean(latency), 0.0};
  }
  return stats::fit_line_moments(moments.n, moments.sum_x, moments.sum_xx,
                                 bytes, latency);
}

/// stats::percentile_sorted without the sort: nth_element places exactly
/// the value that would sit at sorted rank `lo`, and the interpolation
/// partner at rank lo+1 is the minimum of the right partition (exact and
/// order-independent on these NaN-free streams). The interpolation
/// arithmetic is identical to stats::percentile_sorted, so the result is
/// the same double to the last bit. Mutates `scratch` (partial ordering);
/// O(n) per call.
double percentile_select(std::vector<double>& scratch, double q) {
  MNEMO_EXPECTS(!scratch.empty());
  if (scratch.size() == 1) return scratch[0];
  const double pos = q * static_cast<double>(scratch.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(scratch.begin(), nth, scratch.end());
  if (lo + 1 >= scratch.size()) return scratch[scratch.size() - 1];
  const double next = *std::min_element(nth + 1, scratch.end());
  return *nth * (1.0 - frac) + next * frac;
}

util::Error empty_trace_error() {
  util::Error e;
  e.code = util::ErrorCode::kInvalidArgument;
  e.message = "trace has no requests to replay; measurement is undefined";
  return e;
}

/// The per-cell latency streams of a replay: the per-op sink both full
/// replay and skeleton replay feed, and the statistics tail they share —
/// so the two paths cannot drift apart.
struct CompiledSamples {
  std::vector<double> read_lat;
  std::vector<double> write_lat;

  explicit CompiledSamples(const workload::CompiledTrace& compiled) {
    // Exact counts are campaign invariants the compile step already paid
    // for. The read stream also holds room for the writes derive()
    // appends to it.
    read_lat.reserve(compiled.request_count());
    write_lat.reserve(compiled.write_count());
  }

  void add(RunMeasurement& m, workload::OpType op, double service_ns) {
    m.runtime_ns += service_ns;
    m.latency_hist.add(service_ns);
    (op == workload::OpType::kRead ? read_lat : write_lat)
        .push_back(service_ns);
  }

  /// Derive every per-run statistic from the latency streams. Means and
  /// fits read the streams in request order before any reordering; the
  /// per-request byte streams are placement-invariant, so the compiled
  /// trace carries them pre-split, in the same order add() pushed. The two
  /// tail ranks are then extracted by selection over the concatenated
  /// streams (the writes appended in place to the reads, which derive()
  /// consumes) — the same doubles a sort would index, pinned by the golden
  /// fixtures.
  [[nodiscard]] util::Status derive(RunMeasurement& m,
                                    const workload::CompiledTrace& compiled) {
    m.reads = read_lat.size();
    m.writes = write_lat.size();
    m.avg_read_ns = read_lat.empty() ? 0.0 : stats::mean(read_lat);
    m.avg_write_ns = write_lat.empty() ? 0.0 : stats::mean(write_lat);
    m.read_vs_bytes =
        fit_service_line(compiled.read_fit(), compiled.read_bytes(), read_lat);
    m.write_vs_bytes = fit_service_line(compiled.write_fit(),
                                        compiled.write_bytes(), write_lat);
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
    read_lat.insert(read_lat.end(), write_lat.begin(), write_lat.end());
    m.p95_ns = percentile_select(read_lat, 0.95);
    m.p99_ns = percentile_select(read_lat, 0.99);
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
