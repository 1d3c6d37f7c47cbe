#include "core/sensitivity_engine.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "workload/compiled_trace.hpp"
#include "workload/suite.hpp"

namespace mnemo::core {
namespace {

using hybridmem::NodeId;
using hybridmem::Placement;

workload::Trace small_trace(std::string_view name = "timeline") {
  workload::WorkloadSpec spec = workload::paper_workload(name);
  spec.key_count = 500;
  spec.request_count = 5'000;
  return workload::Trace::generate(spec);
}

SensitivityConfig fast_config() {
  SensitivityConfig cfg;
  cfg.repeats = 2;
  return cfg;
}

TEST(SensitivityEngine, RunOnceProducesCoherentMeasurement) {
  const SensitivityEngine engine(fast_config());
  const auto trace = small_trace();
  const RunMeasurement m =
      engine
          .try_run_once(workload::CompiledTrace(trace),
                        Placement(trace.key_count(), NodeId::kFast))
          .value();
  EXPECT_EQ(m.requests, trace.requests().size());
  EXPECT_EQ(m.reads + m.writes, m.requests);
  EXPECT_GT(m.runtime_ns, 0.0);
  EXPECT_NEAR(m.avg_latency_ns, m.runtime_ns / static_cast<double>(m.requests),
              1e-6);
  EXPECT_NEAR(m.throughput_ops,
              static_cast<double>(m.requests) / (m.runtime_ns / 1e9), 1e-3);
  EXPECT_GE(m.p99_ns, m.p95_ns);
  EXPECT_GE(m.p95_ns, 0.0);
}

TEST(SensitivityEngine, RunOnceIsDeterministicPerRepeatIndex) {
  const SensitivityEngine engine(fast_config());
  const auto trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  const Placement placement(trace.key_count(), NodeId::kSlow);
  const RunMeasurement a = engine.try_run_once(compiled, placement, 0).value();
  const RunMeasurement b = engine.try_run_once(compiled, placement, 0).value();
  EXPECT_DOUBLE_EQ(a.runtime_ns, b.runtime_ns);
  const RunMeasurement c = engine.try_run_once(compiled, placement, 1).value();
  EXPECT_NE(a.runtime_ns, c.runtime_ns) << "repeats use distinct seeds";
}

TEST(SensitivityEngine, MeasureAveragesRepeats) {
  const SensitivityEngine engine(fast_config());
  const auto trace = small_trace();
  const Placement placement(trace.key_count(), NodeId::kFast);
  const RunMeasurement avg = engine.measure(trace, placement);
  const workload::CompiledTrace compiled(trace);
  const RunMeasurement r0 = engine.try_run_once(compiled, placement, 0).value();
  const RunMeasurement r1 = engine.try_run_once(compiled, placement, 1).value();
  EXPECT_NEAR(avg.runtime_ns, (r0.runtime_ns + r1.runtime_ns) / 2.0, 1e-3);
}

TEST(SensitivityEngine, BaselinesOrderFastAboveSlow) {
  const SensitivityEngine engine(fast_config());
  const auto trace = small_trace();
  const PerfBaselines b = engine.baselines(trace);
  EXPECT_GT(b.fast.throughput_ops, b.slow.throughput_ops);
  EXPECT_LT(b.fast.runtime_ns, b.slow.runtime_ns);
  EXPECT_GT(b.read_delta_ns(), 0.0);
  EXPECT_GT(b.sensitivity(), 0.0);
}

TEST(SensitivityEngine, IntermediatePlacementBetweenBaselines) {
  const SensitivityEngine engine(fast_config());
  const auto trace = small_trace();
  const PerfBaselines b = engine.baselines(trace);
  std::vector<std::uint64_t> order(trace.key_count());
  std::iota(order.begin(), order.end(), 0);
  const RunMeasurement mid = engine.measure(
      trace, Placement::from_order(order, trace.key_count() / 2));
  EXPECT_GT(mid.throughput_ops, b.slow.throughput_ops * 0.98);
  EXPECT_LT(mid.throughput_ops, b.fast.throughput_ops * 1.02);
}

TEST(SensitivityEngine, WriteHeavyWorkloadReportsWriteLatencies) {
  const SensitivityEngine engine(fast_config());
  const auto trace = small_trace("edit_thumbnail");
  const RunMeasurement m =
      engine
          .try_run_once(workload::CompiledTrace(trace),
                        Placement(trace.key_count(), NodeId::kFast))
          .value();
  EXPECT_GT(m.writes, 0u);
  EXPECT_GT(m.avg_write_ns, 0.0);
  EXPECT_GT(m.avg_read_ns, 0.0);
}

TEST(SensitivityEngine, PlatformCapacityAutoSizesToDataset) {
  // A dataset bigger than the default 4 GiB node still runs: the engine
  // scales node capacity, not timing.
  SensitivityConfig cfg = fast_config();
  cfg.repeats = 1;
  const SensitivityEngine engine(cfg);
  workload::WorkloadSpec spec = workload::paper_workload("trending");
  spec.key_count = 2'000;
  spec.request_count = 2'000;
  const auto trace = workload::Trace::generate(spec);
  const RunMeasurement m =
      engine
          .try_run_once(workload::CompiledTrace(trace),
                        Placement(trace.key_count(), NodeId::kFast))
          .value();
  EXPECT_EQ(m.requests, trace.requests().size());
}

TEST(AverageRuns, FieldwiseMean) {
  RunMeasurement a;
  a.runtime_ns = 100.0;
  a.throughput_ops = 10.0;
  a.requests = 5;
  RunMeasurement b = a;
  b.runtime_ns = 200.0;
  b.throughput_ops = 20.0;
  const RunMeasurement avg = average_runs({a, b});
  EXPECT_DOUBLE_EQ(avg.runtime_ns, 150.0);
  EXPECT_DOUBLE_EQ(avg.throughput_ops, 15.0);
  EXPECT_EQ(avg.requests, 5u);
}

}  // namespace
}  // namespace mnemo::core
