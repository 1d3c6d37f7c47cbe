#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/baselines.hpp"
#include "faultinject/fault_plan.hpp"
#include "hybridmem/emulation_profile.hpp"
#include "hybridmem/placement.hpp"
#include "kvstore/kvstore.hpp"
#include "kvstore/service_profile.hpp"
#include "util/status.hpp"
#include "workload/trace.hpp"

namespace mnemo::workload {
class CompiledTrace;
}

namespace mnemo::core {

/// Configuration of a measurement campaign: which store architecture, on
/// which emulated platform, how many repeated runs per configuration.
struct SensitivityConfig {
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  hybridmem::EmulationProfile platform;  ///< default: paper testbed
  int repeats = 3;       ///< paper: "mean of multiple experiment runs"
  std::uint64_t seed = 0xbea5;
  /// Worker threads for the {placement × repeat} measurement campaigns
  /// behind measure()/baselines(); 0 = hardware concurrency, 1 = serial.
  /// Results are bit-identical at any thread count (see core/campaign).
  std::size_t threads = 0;
  /// Deterministic fault plan armed on every deployment the engine builds
  /// (DESIGN.md §7). Empty = healthy platform; the default.
  faultinject::FaultPlan faults;

  SensitivityConfig();
};

/// What the leader of a placement group publishes to its repeat siblings
/// (DESIGN.md §14): the deterministic pre-noise service time of every op
/// of its replay, recorded through the kvstore skeleton tap, plus the
/// platform counters the siblings inherit.
struct ReplaySkeleton {
  std::vector<double> service_ns;  ///< one entry per replayed op
  double llc_hit_rate = 0.0;
  faultinject::FaultStats faults;
  /// Siblings may replay it: the leader finished on a fault-free platform.
  /// Cells that share a placement and differ only in `repeat` run the same
  /// deterministic state machine — the per-repeat seed feeds only the
  /// service-noise rng, and no store path reads it.
  bool shareable = false;
};

/// The paper's Sensitivity Engine: a customized YCSB client that executes
/// the actual workload against the dual-server deployment and extracts
/// client-side performance — total runtime, throughput, average read and
/// write response times, and tail latencies. Runs the two extreme
/// placements to establish the baselines that bound the estimation curve,
/// and arbitrary placements for validation sweeps.
class SensitivityEngine {
 public:
  explicit SensitivityEngine(SensitivityConfig config);

  /// Execute the compiled trace once against a fresh deployment with the
  /// given placement (seed-shifted by `repeat`), returning the client
  /// view. Each request's precomputed hash passes through to the stores
  /// (DESIGN.md §12). Arms config().faults on the deployment (fault
  /// stream derived from repeat and `attempt`, store seeds untouched — a
  /// retry redraws the fault sequence, never the workload service noise)
  /// and returns a typed error instead of aborting when the run fails (an
  /// empty trace is kInvalidArgument; a record its node cannot fit, loaded
  /// or inserted, is kCapacityExhausted). The measurement's `faults`
  /// counters report every event absorbed. With `record` set (fault-free
  /// engines only) the run also arms the skeleton tap and leaves its
  /// skeleton there for repeat siblings.
  [[nodiscard]] util::Result<RunMeasurement> try_run_once(
      const workload::CompiledTrace& compiled,
      const hybridmem::Placement& placement, int repeat = 0, int attempt = 0,
      ReplaySkeleton* record = nullptr) const;

  /// A repeat sibling's replay: exactly what try_run_once(compiled,
  /// placement, repeat) returns, derived from a sibling's published
  /// skeleton — only the per-repeat service noise and the statistics tail
  /// run, no deployment is built. Requires `skeleton.shareable`, recorded
  /// over the same trace and placement.
  [[nodiscard]] util::Result<RunMeasurement> replay_skeleton(
      const workload::CompiledTrace& compiled,
      const hybridmem::Placement& placement, int repeat,
      const ReplaySkeleton& skeleton) const;

  /// Mean of `repeats` runs for one placement, fanned out as a
  /// measurement campaign over config().threads workers.
  [[nodiscard]] RunMeasurement measure(
      const workload::Trace& trace,
      const hybridmem::Placement& placement) const;

  /// The two extreme configurations: all-FastMem and all-SlowMem, run as
  /// one 2×repeats campaign so both baselines measure concurrently.
  [[nodiscard]] PerfBaselines baselines(const workload::Trace& trace) const;

  [[nodiscard]] const SensitivityConfig& config() const noexcept {
    return config_;
  }

  /// Node capacity big enough for the dataset plus engine overhead so
  /// either extreme placement fits on one node.
  [[nodiscard]] hybridmem::EmulationProfile sized_platform(
      std::uint64_t dataset_bytes) const;

  /// The store configuration of one cell's deployment: the repeat
  /// perturbs the service-noise seed and nothing else.
  [[nodiscard]] kvstore::StoreConfig store_config(int repeat) const;

 private:
  SensitivityConfig config_;
};

}  // namespace mnemo::core
