// Whole-pipeline determinism: every result in this repository is a pure
// function of the configuration seeds — reruns produce byte-identical
// artifacts. This is what makes the benches reproducible and EXPERIMENTS.md
// numbers stable across machines.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/migration.hpp"
#include "core/mnemo.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/suite.hpp"

namespace mnemo::core {
namespace {

workload::Trace small_trace() {
  workload::WorkloadSpec spec = workload::paper_workload("trending_preview");
  spec.key_count = 400;
  spec.request_count = 4'000;
  return workload::Trace::generate(spec);
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Determinism, ReportsAreBitwiseReproducible) {
  const auto trace = small_trace();
  MnemoConfig cfg;
  cfg.repeats = 2;
  cfg.ordering = OrderingPolicy::kTiered;

  const Mnemo a(cfg);
  const Mnemo b(cfg);
  const MnemoReport ra = a.profile(trace);
  const MnemoReport rb = b.profile(trace);

  EXPECT_EQ(ra.baselines.fast.runtime_ns, rb.baselines.fast.runtime_ns);
  EXPECT_EQ(ra.baselines.slow.p99_ns, rb.baselines.slow.p99_ns);
  EXPECT_EQ(ra.order, rb.order);
  ASSERT_EQ(ra.curve.points.size(), rb.curve.points.size());
  for (std::size_t i = 0; i < ra.curve.points.size(); ++i) {
    ASSERT_EQ(ra.curve.points[i].est_throughput_ops,
              rb.curve.points[i].est_throughput_ops);
  }

  const std::string pa = ::testing::TempDir() + "/det_a.csv";
  const std::string pb = ::testing::TempDir() + "/det_b.csv";
  ra.write_csv(pa);
  rb.write_csv(pb);
  EXPECT_EQ(file_contents(pa), file_contents(pb));
  std::filesystem::remove(pa);
  std::filesystem::remove(pb);
}

TEST(Determinism, SeedChangesMoveTheMeasurementsNotTheShape) {
  const auto trace = small_trace();
  MnemoConfig cfg;
  cfg.repeats = 1;
  MnemoConfig other = cfg;
  other.seed = cfg.seed + 1;
  const Mnemo a(cfg);
  const Mnemo b(other);
  const MnemoReport ra = a.profile(trace);
  const MnemoReport rb = b.profile(trace);
  // Jitter draws differ, so exact values differ...
  EXPECT_NE(ra.baselines.fast.runtime_ns, rb.baselines.fast.runtime_ns);
  // ...but only by noise: the measured sensitivity is stable.
  EXPECT_NEAR(ra.baselines.sensitivity(), rb.baselines.sensitivity(), 0.02);
}

TEST(Determinism, DynamicTieringIsReproducible) {
  const auto trace = small_trace();
  SensitivityConfig sens;
  sens.repeats = 1;
  MigrationConfig mig;
  mig.fast_budget_bytes = trace.dataset_bytes() / 3;
  mig.epoch_requests = 500;
  const DynamicTierer t1(sens, mig);
  const DynamicTierer t2(sens, mig);
  const MigrationResult r1 = t1.run(trace);
  const MigrationResult r2 = t2.run(trace);
  EXPECT_EQ(r1.measurement.runtime_ns, r2.measurement.runtime_ns);
  EXPECT_EQ(r1.migrations, r2.migrations);
  EXPECT_EQ(r1.bytes_migrated, r2.bytes_migrated);
}

TEST(Determinism, ValidationRunsMatchAcrossProcessesOfTheSuite) {
  // The same (trace, placement, repeat) triple always measures the same:
  // try_run_once is a pure function.
  const auto trace = small_trace();
  SensitivityConfig cfg;
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  const hybridmem::Placement half =
      hybridmem::Placement::from_order(
          PatternEngine::analyze(trace).touch_order, trace.key_count() / 2);
  const workload::CompiledTrace compiled(trace);
  const RunMeasurement m1 = engine.try_run_once(compiled, half, 3).value();
  const RunMeasurement m2 = engine.try_run_once(compiled, half, 3).value();
  EXPECT_EQ(m1.runtime_ns, m2.runtime_ns);
  EXPECT_EQ(m1.p99_ns, m2.p99_ns);
  EXPECT_EQ(m1.llc_hit_rate, m2.llc_hit_rate);
}

}  // namespace
}  // namespace mnemo::core
