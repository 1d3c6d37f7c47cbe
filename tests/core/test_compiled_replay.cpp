// Equivalence oracle for the compile-once campaign path (DESIGN.md §12):
// ReplayMode::kCompiled — shared CompiledTrace, hash/digest passthrough,
// arena-backed cells — must produce measurements bit-identical
// (field-for-field via RunMeasurement's defaulted operator==) to
// ReplayMode::kLegacy, for every store architecture, with and without
// faults, at every thread count in {1, 2, 8}.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr kvstore::StoreKind kStores[] = {kvstore::StoreKind::kVermilion,
                                          kvstore::StoreKind::kCachet,
                                          kvstore::StoreKind::kDynaStore};

workload::Trace small_trace() {
  workload::WorkloadSpec spec;
  spec.name = "compiled_replay";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.85;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 200;
  spec.request_count = 2'000;
  spec.seed = 0xc0dec;
  return workload::Trace::generate(spec);
}

std::vector<hybridmem::Placement> sweep_placements(
    const workload::Trace& trace) {
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  std::vector<hybridmem::Placement> placements;
  for (const double f : {0.0, 0.5, 1.0}) {
    placements.push_back(hybridmem::Placement::from_order(
        order, static_cast<std::size_t>(
                   f * static_cast<double>(trace.key_count()))));
  }
  return placements;
}

TEST(CompiledTrace, HoistsExactlyWhatTheStoresWouldCompute) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);

  ASSERT_EQ(compiled.key_count(), trace.key_count());
  ASSERT_EQ(compiled.request_count(), trace.requests().size());
  EXPECT_EQ(compiled.dataset_bytes(), trace.dataset_bytes());

  for (std::uint64_t key = 0; key < trace.key_count(); ++key) {
    ASSERT_EQ(compiled.key_hash(key), util::mix64(key));
    ASSERT_EQ(compiled.key_digest(key),
              util::record_digest(key, trace.size_of(key)));
  }

  std::size_t reads = 0;
  for (std::size_t i = 0; i < compiled.request_count(); ++i) {
    const workload::Request& req = trace.requests()[i];
    ASSERT_EQ(compiled.ops()[i], req.op);
    ASSERT_EQ(compiled.keys()[i], req.key);
    if (req.op == workload::OpType::kRead) ++reads;
  }
  EXPECT_EQ(compiled.read_count(), reads);
  EXPECT_EQ(compiled.write_count(), compiled.request_count() - reads);
  EXPECT_EQ(compiled.read_bytes().size(), compiled.read_count());
  EXPECT_EQ(compiled.write_bytes().size(), compiled.write_count());
}

TEST(CompiledReplay, GridBitIdenticalToLegacyAcrossStoresAndThreads) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 2;
    const SensitivityEngine engine(cfg);

    for (const std::size_t threads : kThreadCounts) {
      CampaignRunner legacy(threads);
      legacy.set_replay_mode(ReplayMode::kLegacy);
      CampaignRunner fast(threads);
      // The default is grouped skeleton replay; this suite pins the
      // per-cell compiled arm against legacy (the grouped ≡ per-cell leg
      // lives in test_grouped_replay.cpp).
      ASSERT_EQ(fast.replay_mode(), ReplayMode::kGrouped);
      fast.set_replay_mode(ReplayMode::kCompiled);

      const std::vector<RunMeasurement> before =
          legacy.measure_grid(engine, trace, placements);
      const std::vector<RunMeasurement> after =
          fast.measure_grid(engine, trace, placements);
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i], after[i])
            << kvstore::to_string(store) << " placement " << i << " threads "
            << threads;
      }
    }
  }
}

TEST(CompiledReplay, CheckedCampaignWithFaultsMatchesLegacy) {
  const workload::Trace trace = small_trace();
  faultinject::FaultPlan plan;
  plan.poison_rate = 0.2;

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 2;
    cfg.faults = plan;
    const SensitivityEngine engine(cfg);

    const hybridmem::Placement all_fast(trace.key_count(),
                                        hybridmem::NodeId::kFast);
    const hybridmem::Placement all_slow(trace.key_count(),
                                        hybridmem::NodeId::kSlow);
    const std::vector<CampaignCell> cells = {
        {all_fast, 0}, {all_slow, 0}, {all_fast, 1}, {all_slow, 1}};

    for (const std::size_t threads : kThreadCounts) {
      CampaignRunner legacy(threads);
      legacy.set_replay_mode(ReplayMode::kLegacy);
      CampaignRunner fast(threads);

      const CampaignResult before = legacy.run_checked(engine, trace, cells);
      const CampaignResult after = fast.run_checked(engine, trace, cells);
      ASSERT_EQ(before.measurements.size(), after.measurements.size());
      for (std::size_t i = 0; i < before.measurements.size(); ++i) {
        EXPECT_EQ(before.measurements[i], after.measurements[i])
            << kvstore::to_string(store) << " cell " << i << " threads "
            << threads;
      }
      EXPECT_EQ(before.failures, after.failures)
          << kvstore::to_string(store) << " threads " << threads;
    }
  }
}

TEST(CompiledReplay, DirectRunOnceWithExternalArenaMatchesHeap) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  const hybridmem::Placement half(
      trace.key_count(), hybridmem::NodeId::kFast);
  SensitivityConfig cfg;
  const SensitivityEngine engine(cfg);

  const RunMeasurement heap_legacy = engine.run_once(trace, half, 1);
  const RunMeasurement heap_compiled = engine.run_once(compiled, half, 1);
  EXPECT_EQ(heap_legacy, heap_compiled);

  util::Arena arena;
  for (int cycle = 0; cycle < 3; ++cycle) {
    arena.reset();
    EXPECT_EQ(engine.run_once(compiled, half, 1, &arena), heap_legacy)
        << "arena cycle " << cycle;
  }
}

TEST(CompiledReplay, ZeroRequestTraceIsTypedErrorOnBothPaths) {
  // WorkloadSpec forbids generating an empty trace, but a loaded/derived
  // trace (CSV import, aggressive downsample) can legally be requestless.
  const workload::Trace trace("empty", 16, {},
                              std::vector<std::uint64_t>(16, 64));
  const workload::CompiledTrace compiled(trace);
  const hybridmem::Placement placement(trace.key_count(),
                                       hybridmem::NodeId::kFast);
  SensitivityConfig cfg;
  const SensitivityEngine engine(cfg);

  const util::Result<RunMeasurement> legacy =
      engine.try_run_once(trace, placement);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.error().code, util::ErrorCode::kInvalidArgument);

  util::Arena arena;
  const util::Result<RunMeasurement> fast =
      engine.try_run_once(compiled, placement, 0, 0, &arena);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(legacy.error().message, fast.error().message);
}

}  // namespace
}  // namespace mnemo::core
