#include "faultinject/fault_injector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "faultinject/fault_plan.hpp"
#include "hybridmem/hybrid_memory.hpp"

namespace mnemo::faultinject {
namespace {

TEST(FaultPlan, DefaultIsEmptyAndArmable) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.summary(), "no faults");
  EXPECT_NO_THROW(plan.check());
}

TEST(FaultPlan, ParseFillsEveryField) {
  const FaultPlan plan = FaultPlan::parse(
      "transient=1e-4,retries=5,retry_cost=250,recover=0.75,"
      "poison=5e-5,remap_cost=2000,bw_period=4000,bw_window=400,"
      "bw_factor=0.5,seed=7");
  EXPECT_DOUBLE_EQ(plan.transient_read_rate, 1e-4);
  EXPECT_EQ(plan.transient_max_retries, 5);
  EXPECT_DOUBLE_EQ(plan.transient_retry_cost_ns, 250.0);
  EXPECT_DOUBLE_EQ(plan.transient_recover_prob, 0.75);
  EXPECT_DOUBLE_EQ(plan.poison_rate, 5e-5);
  EXPECT_DOUBLE_EQ(plan.poison_remap_cost_ns, 2000.0);
  EXPECT_EQ(plan.bw_period_accesses, 4000u);
  EXPECT_EQ(plan.bw_window_accesses, 400u);
  EXPECT_DOUBLE_EQ(plan.bw_degraded_factor, 0.5);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ParseRejectsGarbage) {
  EXPECT_THROW(FaultPlan::parse("transient"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("transient=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bogus=1"), std::invalid_argument);
  // Parse validates ranges through check().
  EXPECT_THROW(FaultPlan::parse("transient=2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bw_period=100"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bw_period=10,bw_window=20"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bw_period=10,bw_window=5,bw_factor=0"),
               std::invalid_argument);
}

TEST(FaultPlan, SummaryNamesEnabledClasses) {
  FaultPlan plan;
  plan.transient_read_rate = 1e-3;
  EXPECT_NE(plan.summary().find("transient reads"), std::string::npos);
  plan.poison_rate = 1e-4;
  EXPECT_NE(plan.summary().find("poisoned lines"), std::string::npos);
  plan.bw_period_accesses = 100;
  plan.bw_window_accesses = 10;
  EXPECT_NE(plan.summary().find("bandwidth windows"), std::string::npos);
}

TEST(FailPolicy, RoundTrip) {
  EXPECT_EQ(to_string(FailPolicy::kAbort), "abort");
  EXPECT_EQ(to_string(FailPolicy::kDegrade), "degrade");
  EXPECT_EQ(parse_fail_policy("abort"), FailPolicy::kAbort);
  EXPECT_EQ(parse_fail_policy("degrade"), FailPolicy::kDegrade);
  EXPECT_THROW(parse_fail_policy("explode"), std::invalid_argument);
}

FaultPlan busy_plan() {
  FaultPlan plan;
  plan.transient_read_rate = 0.3;
  plan.transient_recover_prob = 0.5;
  plan.poison_rate = 0.1;
  plan.bw_period_accesses = 10;
  plan.bw_window_accesses = 3;
  plan.bw_degraded_factor = 0.25;
  return plan;
}

TEST(FaultInjector, SamePlanAndStreamReplaysBitIdentically) {
  FaultInjector a(busy_plan(), 42);
  FaultInjector b(busy_plan(), 42);
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.on_slow_read();
    const auto rb = b.on_slow_read();
    ASSERT_EQ(ra.faulted, rb.faulted);
    ASSERT_EQ(ra.failed, rb.failed);
    ASSERT_EQ(a.stats().transient_retries, b.stats().transient_retries);
    ASSERT_EQ(ra.extra_ns, rb.extra_ns);
    ASSERT_EQ(a.next_bandwidth_factor(), b.next_bandwidth_factor());
  }
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_GT(a.stats().events(), 0u);
}

TEST(FaultInjector, DifferentStreamsDrawDifferentOutcomes) {
  FaultInjector a(busy_plan(), 1);
  FaultInjector b(busy_plan(), 2);
  int diffs = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.on_slow_read().faulted != b.on_slow_read().faulted) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, PoisonMembershipIsPureAndOrderIndependent) {
  FaultInjector a(busy_plan(), 9);
  std::vector<bool> forward;
  forward.reserve(200);
  for (std::uint64_t k = 0; k < 200; ++k) forward.push_back(a.poisoned(k));
  // Re-query in reverse, interleaved with RNG-advancing reads: membership
  // must not depend on call order or RNG position.
  for (std::uint64_t k = 200; k-- > 0;) {
    (void)a.on_slow_read();
    ASSERT_EQ(a.poisoned(k), forward[k]) << "key " << k;
  }
  // And it matches a fresh injector with the same (plan, stream).
  FaultInjector b(busy_plan(), 9);
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(b.poisoned(k), forward[k]);
  }
}

TEST(FaultInjector, PoisonRateIsApproximatelyHonored) {
  FaultPlan plan;
  plan.poison_rate = 0.1;
  FaultInjector inj(plan, 3);
  int hits = 0;
  const int n = 20'000;
  for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(n); ++k) {
    if (inj.poisoned(k)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
}

TEST(FaultInjector, ZeroRatesNeverFault) {
  const FaultPlan plan;  // empty
  FaultInjector inj(plan, 5);
  for (int i = 0; i < 1000; ++i) {
    const auto r = inj.on_slow_read();
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.extra_ns, 0.0);
    EXPECT_EQ(inj.next_bandwidth_factor(), 1.0);
    EXPECT_FALSE(inj.poisoned(static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(inj.stats().events(), 0u);
}

TEST(FaultInjector, BandwidthWindowsOpenOnSchedule) {
  FaultPlan plan;
  plan.bw_period_accesses = 10;
  plan.bw_window_accesses = 3;
  plan.bw_degraded_factor = 0.25;
  FaultInjector inj(plan, 0);
  // The window clock is counter-based: within every period of 10 accesses,
  // exactly 3 are degraded — deterministically, with no RNG involved.
  int degraded = 0;
  for (int i = 0; i < 100; ++i) {
    const double f = inj.next_bandwidth_factor();
    if (f != 1.0) {
      EXPECT_DOUBLE_EQ(f, 0.25);
      ++degraded;
    }
  }
  EXPECT_EQ(degraded, 30);
  EXPECT_EQ(inj.stats().degraded_accesses, 30u);
}

TEST(FaultInjector, PausedInjectorLeavesAccessesHealthy) {
  // Suppression lives in the memory layer: while paused() the platform
  // must not consult the injector at all, so even a rate-1.0 plan leaves
  // the access bit-identical to the fault-free platform.
  hybridmem::HybridMemory memory(
      hybridmem::paper_testbed_with_capacity(64ULL * 1024 * 1024));
  FaultPlan plan;
  plan.transient_read_rate = 1.0;
  plan.poison_rate = 1.0;
  memory.arm_faults(plan, 4);

  hybridmem::HybridMemory healthy(
      hybridmem::paper_testbed_with_capacity(64ULL * 1024 * 1024));
  ASSERT_TRUE(memory.place(1, 4096, hybridmem::NodeId::kSlow));
  ASSERT_TRUE(healthy.place(1, 4096, hybridmem::NodeId::kSlow));

  {
    FaultPause pause(memory.fault_injector());
    const auto faulty = memory.access(1, hybridmem::MemOp::kRead, {});
    const auto clean = healthy.access(1, hybridmem::MemOp::kRead, {});
    EXPECT_EQ(faulty.fault, hybridmem::FaultKind::kNone);
    EXPECT_FALSE(faulty.failed);
    EXPECT_EQ(faulty.ns, clean.ns);
  }
  EXPECT_EQ(memory.fault_stats().events(), 0u);

  // Unpaused, the same access draws the poison fault immediately.
  memory.drop_caches();
  const auto r = memory.access(1, hybridmem::MemOp::kRead, {});
  EXPECT_EQ(r.fault, hybridmem::FaultKind::kPoisoned);
  EXPECT_GT(memory.fault_stats().events(), 0u);
}

TEST(FaultPause, IsNullSafeAndNests) {
  FaultPause outer(nullptr);  // healthy platform: no injector at all
  FaultPlan plan;
  plan.transient_read_rate = 1.0;
  FaultInjector inj(plan, 0);
  {
    FaultPause a(&inj);
    {
      FaultPause b(&inj);
      EXPECT_TRUE(inj.paused());
    }
    EXPECT_TRUE(inj.paused());
  }
  EXPECT_FALSE(inj.paused());
}

TEST(FaultStats, MergeSumsCounters) {
  FaultStats a{1, 2, 3, 4, 5};
  const FaultStats b{10, 20, 30, 40, 50};
  a.merge(b);
  EXPECT_EQ(a, (FaultStats{11, 22, 33, 44, 55}));
  EXPECT_EQ(a.events(), 11u + 44u + 55u);
}

}  // namespace
}  // namespace mnemo::faultinject
