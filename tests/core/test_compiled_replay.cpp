// The compile-once replay path (DESIGN.md §12): a CompiledTrace hoists
// exactly the per-key and per-request values the stores and the statistics
// tail would compute, a trace with no requests is a typed error whether a
// cell replays it directly or through a campaign grid, and so is a dataset
// its node cannot hold.
// Campaign grids over the compiled replay are pinned by the golden
// fixtures (test_golden_replay) at every thread count in {1, 2, 8}.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

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

TEST(CompiledTrace, HoistsExactlyWhatTheStoresWouldCompute) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);

  ASSERT_EQ(compiled.key_count(), trace.key_count());
  ASSERT_EQ(compiled.request_count(), trace.requests().size());
  EXPECT_EQ(compiled.dataset_bytes(), trace.dataset_bytes());

  for (std::uint64_t key = 0; key < trace.key_count(); ++key) {
    ASSERT_EQ(compiled.key_hash(key), util::mix64(key));
  }

  std::size_t reads = 0;
  for (std::size_t i = 0; i < compiled.request_count(); ++i) {
    const workload::Request& req = trace.requests()[i];
    ASSERT_EQ(compiled.ops()[i], req.op);
    ASSERT_EQ(compiled.keys()[i], req.key);
    if (req.op == workload::OpType::kRead) ++reads;
  }
  EXPECT_EQ(compiled.read_bytes().size(), reads);
  EXPECT_EQ(compiled.write_bytes().size(), compiled.request_count() - reads);
}

TEST(CompiledReplay, ZeroRequestTraceIsTypedErrorOnBothPaths) {
  // WorkloadSpec forbids generating an empty trace and Trace::load_csv
  // rejects one, but a library caller can still build (or downsample into)
  // a requestless Trace.
  const workload::Trace trace("empty", 16, {},
                              std::vector<std::uint64_t>(16, 64));
  const workload::CompiledTrace compiled(trace);
  const hybridmem::Placement placement(trace.key_count(),
                                       hybridmem::NodeId::kFast);
  SensitivityConfig cfg;
  const SensitivityEngine engine(cfg);

  const util::Result<RunMeasurement> direct =
      engine.try_run_once(compiled, placement);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.error().code, util::ErrorCode::kInvalidArgument);

  // A grid quarantines the cell with the same error.
  CampaignRunner runner(1);
  const CampaignResult grid =
      runner.run_checked(engine, trace, {{placement, 0}});
  ASSERT_EQ(grid.failures.size(), 1u);
  EXPECT_EQ(grid.failures.front().error.code,
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(grid.failures.front().error.message, direct.error().message);
}

// Cachet keeps a 1 MiB record in a 2 MiB huge-class chunk, so 32 of them
// overflow a 64 MiB node: the engine sizes nodes at twice the dataset's
// payload bytes, not its chunks. No store evicts, so a deployment that
// cannot hold its dataset is a typed capacity error naming the key that
// did not fit, whether that key is loaded up front or inserted by the
// replay, and never an abort or a measurement of a smaller dataset.
TEST(CompiledReplay, NodeOverflowIsATypedCapacityError) {
  constexpr std::uint64_t kKeys = 32;
  const std::vector<std::uint64_t> sizes(kKeys, util::kMiB);
  SensitivityConfig cfg;
  cfg.store = kvstore::StoreKind::kCachet;
  cfg.platform = hybridmem::paper_testbed_with_capacity(64 * util::kMiB);
  const SensitivityEngine engine(cfg);
  const hybridmem::Placement all_fast(kKeys, hybridmem::NodeId::kFast);

  std::vector<workload::Request> reads;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    reads.push_back({k, workload::OpType::kRead});
  }
  const workload::Trace loaded("overflow", kKeys, reads, sizes);
  const util::Result<RunMeasurement> populate =
      engine.try_run_once(workload::CompiledTrace(loaded), all_fast);
  ASSERT_FALSE(populate.ok());
  EXPECT_EQ(populate.error().code, util::ErrorCode::kCapacityExhausted);
  EXPECT_EQ(populate.error().key, kKeys - 1);
  EXPECT_EQ(populate.error().message.rfind("populate: ", 0), 0u)
      << populate.error().message;

  // Half the keys loaded and read; the other half inserted afterwards.
  std::vector<workload::Request> inserts(reads.begin(),
                                         reads.begin() + kKeys / 2);
  for (std::uint32_t k = kKeys / 2; k < kKeys; ++k) {
    inserts.push_back({k, workload::OpType::kInsert});
  }
  const workload::Trace inserted("overflow_inserts", kKeys, inserts, sizes,
                                 kKeys / 2);
  const util::Result<RunMeasurement> replay =
      engine.try_run_once(workload::CompiledTrace(inserted), all_fast);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, util::ErrorCode::kCapacityExhausted);
  EXPECT_EQ(replay.error().key, kKeys - 1);
  EXPECT_EQ(replay.error().message.rfind("replay: ", 0), 0u)
      << replay.error().message;
}

}  // namespace
}  // namespace mnemo::core
