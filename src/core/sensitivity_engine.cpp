#include "core/sensitivity_engine.hpp"

#include <algorithm>
#include <memory_resource>
#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "core/replay_internal.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "stats/summary.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

SensitivityConfig::SensitivityConfig()
    : platform(hybridmem::paper_testbed()) {}

// The statistics tail (fit_service_line, percentile selection,
// derive_measurement) lives in replay_internal.hpp, shared verbatim by
// every replay path so the replay modes cannot drift apart.
using replay_detail::derive_measurement;
using replay_detail::empty_trace_error;
using replay_detail::PercentileMode;

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

kvstore::StoreConfig SensitivityEngine::store_config(
    int repeat, std::pmr::memory_resource* memory) const {
  kvstore::StoreConfig store_cfg;
  store_cfg.payload_mode = config_.payload_mode;
  store_cfg.seed = config_.seed + static_cast<std::uint64_t>(repeat) * 0x9e37;
  store_cfg.table_memory = memory;
  return store_cfg;
}

RunMeasurement SensitivityEngine::run_once(
    const workload::Trace& trace, const hybridmem::Placement& placement,
    int repeat) const {
  util::Result<RunMeasurement> run = try_run_once(trace, placement, repeat);
  MNEMO_ASSERT(run.ok() && "run_once requires a run that cannot fail");
  return run.value();
}

util::Result<RunMeasurement> SensitivityEngine::try_run_once(
    const workload::Trace& trace, const hybridmem::Placement& placement,
    int repeat, int attempt) const {
  if (trace.requests().empty()) return empty_trace_error();
  hybridmem::HybridMemory memory(sized_platform(trace.dataset_bytes()));
  kvstore::DualServer servers(memory, config_.store,
                              store_config(repeat, nullptr));
  {
    util::Status loaded = servers.populate(trace, placement);
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

  std::vector<double> read_lat;
  std::vector<double> write_lat;
  std::vector<double> read_bytes;
  std::vector<double> write_bytes;
  // The read/write split is unknown until the loop runs; full-length
  // reserves trade a little address space for zero growth reallocations.
  read_lat.reserve(trace.requests().size());
  write_lat.reserve(trace.requests().size());
  read_bytes.reserve(trace.requests().size());
  write_bytes.reserve(trace.requests().size());

  RunMeasurement m;
  m.requests = trace.requests().size();
  for (const workload::Request& req : trace.requests()) {
    const util::Result<kvstore::OpResult> served = servers.execute(req);
    if (!served.ok()) return served.error();
    const kvstore::OpResult r = served.value();
    MNEMO_ASSERT(r.ok && "all requested keys were populated");
    m.runtime_ns += r.service_ns;
    const auto bytes = static_cast<double>(trace.size_of(req.key));
    m.latency_hist.add(r.service_ns);
    if (req.op == workload::OpType::kRead) {
      read_lat.push_back(r.service_ns);
      read_bytes.push_back(bytes);
    } else {
      // Updates and inserts are both writes to the store.
      write_lat.push_back(r.service_ns);
      write_bytes.push_back(bytes);
    }
  }
  std::vector<double> merged;
  const util::Status derived =
      derive_measurement(m, read_bytes, write_bytes, read_lat, write_lat,
                         merged, PercentileMode::kSortMerge);
  if (!derived.ok()) return derived.error();
  m.llc_hit_rate = memory.llc().hit_rate();
  m.faults = memory.fault_stats();
  return m;
}

RunMeasurement SensitivityEngine::run_once(
    const workload::CompiledTrace& compiled,
    const hybridmem::Placement& placement, int repeat,
    util::Arena* arena) const {
  util::Result<RunMeasurement> run =
      try_run_once(compiled, placement, repeat, 0, arena);
  MNEMO_ASSERT(run.ok() && "run_once requires a run that cannot fail");
  return run.value();
}

namespace {

/// The per-cell latency streams of a compiled replay: the per-op sink both
/// full replay and skeleton replay feed, and the statistics tail they
/// share — so the two paths cannot drift apart.
struct CompiledSamples {
  std::pmr::vector<double> read_lat;
  std::pmr::vector<double> write_lat;

  CompiledSamples(const workload::CompiledTrace& compiled,
                  std::pmr::memory_resource* memory)
      : read_lat(memory), write_lat(memory) {
    // Exact counts are campaign invariants the compile step already paid
    // for.
    read_lat.reserve(compiled.read_count());
    write_lat.reserve(compiled.write_count());
  }

  void add(RunMeasurement& m, workload::OpType op, double service_ns) {
    m.runtime_ns += service_ns;
    m.latency_hist.add(service_ns);
    (op == workload::OpType::kRead ? read_lat : write_lat)
        .push_back(service_ns);
  }

  /// The per-request byte streams are placement-invariant: the compiled
  /// trace carries them pre-split, in the same order add() pushed.
  [[nodiscard]] util::Status derive(RunMeasurement& m,
                                    const workload::CompiledTrace& compiled) {
    std::pmr::vector<double> merged(read_lat.get_allocator());
    return derive_measurement(m, compiled.read_bytes(), compiled.write_bytes(),
                              read_lat, write_lat, merged,
                              PercentileMode::kSelect, &compiled.read_fit(),
                              &compiled.write_fit());
  }
};

[[nodiscard]] std::pmr::memory_resource* cell_memory_of(util::Arena* arena) {
  return arena != nullptr ? static_cast<std::pmr::memory_resource*>(arena)
                          : std::pmr::get_default_resource();
}

}  // namespace

util::Result<RunMeasurement> SensitivityEngine::try_run_once(
    const workload::CompiledTrace& compiled,
    const hybridmem::Placement& placement, int repeat, int attempt,
    util::Arena* arena, ReplaySkeleton* record) const {
  MNEMO_EXPECTS(record == nullptr || config_.faults.empty());
  if (compiled.request_count() == 0) return empty_trace_error();

  // One resource backs every per-cell allocation below — the platform's
  // flat tables, both stores' slot pools, and the latency streams. With an
  // arena those become grow-once bump allocations the worker reuses across
  // cells; without one this is exactly the heap the Trace overload uses.
  std::pmr::memory_resource* cell_memory = cell_memory_of(arena);

  hybridmem::HybridMemory memory(sized_platform(compiled.dataset_bytes()),
                                 cell_memory);
  kvstore::DualServer servers(memory, config_.store,
                              store_config(repeat, cell_memory));
  {
    util::Status loaded = servers.populate(compiled, placement);
    if (!loaded.ok()) return loaded.error();
  }
  memory.drop_caches();
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
  CompiledSamples samples(compiled, cell_memory);
  const std::span<const std::uint64_t> hashes = compiled.key_hashes();
  const std::span<const std::uint64_t> digests = compiled.key_digests();
  // Replay off the compiled flat streams (1-byte ops + 4-byte keys) rather
  // than the Trace's Request structs, through the unchecked execute form —
  // every key was bounds-validated once when the trace compiled.
  const std::span<const workload::OpType> ops = compiled.ops();
  const std::span<const std::uint32_t> keys = compiled.keys();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint32_t key = keys[i];
    const kvstore::KeyHints hints{hashes[key], digests[key]};
    const util::Result<kvstore::OpResult> served =
        servers.execute(ops[i], key, hints);
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
    record->shareable =
        ReplaySkeleton::repeat_invariant(servers.combined_stats());
    record->llc_hit_rate = m.llc_hit_rate;
    record->faults = m.faults;
  }
  return m;
}

util::Result<RunMeasurement> SensitivityEngine::replay_skeleton(
    const workload::CompiledTrace& compiled,
    const hybridmem::Placement& placement, int repeat,
    const ReplaySkeleton& skeleton, util::Arena* arena) const {
  MNEMO_EXPECTS(skeleton.shareable &&
                skeleton.service_ns.size() == compiled.request_count());
  // The sibling's noise streams, reproduced instance-exactly: the same
  // profile resolution, seeds and rng type its own deployment would
  // construct (kvstore::ServiceNoise::for_instance is the one definition
  // both paths share).
  const kvstore::StoreConfig fast_cfg = store_config(repeat, nullptr);
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
  CompiledSamples samples(compiled, cell_memory_of(arena));
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
  CampaignRunner runner(config_.threads, config_.cancel);
  return runner.measure_grid(*this, trace, {placement}).front();
}

PerfBaselines SensitivityEngine::baselines(
    const workload::Trace& trace) const {
  CampaignRunner runner(config_.threads, config_.cancel);
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
