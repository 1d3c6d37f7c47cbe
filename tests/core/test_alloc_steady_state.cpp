// Steady-state allocation audit for the replay hot path (DESIGN.md §8).
//
// The flat-table refactor promises that once a deployment is warmed up —
// every key loaded, every dense table grown, every LRU slot pool at
// working-set size — replaying requests allocates nothing. This binary
// overrides global operator new/delete with a counter and asserts exactly
// that: a full second pass over the trace performs zero heap allocations.
//
// DynaStore is deliberately out of scope: its write path appends to a
// journal (an append-only log grows by design), so it is not part of the
// zero-allocation contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "hybridmem/emulation_profile.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "hybridmem/placement.hpp"
#include "kvstore/dual_server.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/trace.hpp"
#include "workload/workload_spec.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mnemo {
namespace {

workload::Trace replay_trace() {
  workload::WorkloadSpec spec;
  spec.name = "alloc_audit";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 500;
  spec.request_count = 20'000;
  spec.seed = 0xa110c;
  return workload::Trace::generate(spec);
}

void expect_steady_state_allocation_free(kvstore::StoreKind kind) {
  const workload::Trace trace = replay_trace();
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  const hybridmem::Placement placement = hybridmem::Placement::from_order(
      order, static_cast<std::size_t>(trace.key_count()) / 2);
  const std::uint64_t need = std::max<std::uint64_t>(
      trace.dataset_bytes() * 2, 64ULL * 1024 * 1024);

  hybridmem::HybridMemory memory(hybridmem::paper_testbed_with_capacity(need));
  kvstore::StoreConfig cfg;
  cfg.seed = 0xbe7c;
  kvstore::DualServer servers(memory, kind, cfg);
  const workload::CompiledTrace compiled(trace);
  ASSERT_TRUE(servers.populate(compiled, placement).ok());
  const auto serve = [&](std::size_t i) {
    const std::uint32_t key = compiled.keys()[i];
    return servers.execute(compiled.ops()[i], key, {compiled.key_hash(key)});
  };

  // Warm-up pass: any remaining growth (LRU slot pools, dense stamp
  // tables, incremental rehash) happens here.
  memory.drop_caches();
  for (std::size_t i = 0; i < compiled.request_count(); ++i) {
    const util::Result<kvstore::OpResult> r = serve(i);
    ASSERT_TRUE(r.ok() && r.value().ok);
  }

  // Audited pass: replays the identical request stream, so every table is
  // already at working-set size. Zero allocations allowed.
  memory.drop_caches();
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 0; i < compiled.request_count(); ++i) {
    const util::Result<kvstore::OpResult> r = serve(i);
    if (!r.ok() || !r.value().ok) {
      ASSERT_TRUE(false) << "execute failed during audited pass";
    }
  }
  const std::uint64_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations during the steady-state replay pass";
}

TEST(AllocSteadyState, VermilionReplayPassAllocatesNothing) {
  expect_steady_state_allocation_free(kvstore::StoreKind::kVermilion);
}

TEST(AllocSteadyState, CachetReplayPassAllocatesNothing) {
  expect_steady_state_allocation_free(kvstore::StoreKind::kCachet);
}

TEST(AllocSteadyState, CounterHookSeesAllocations) {
  // Sanity-check the hook itself: a vector growth must be visible,
  // otherwise the zero-allocation assertions above prove nothing.
  const std::uint64_t before = g_allocations.load();
  std::vector<int>* v = new std::vector<int>(1024);
  const std::uint64_t during = g_allocations.load() - before;
  delete v;
  EXPECT_GE(during, 2u) << "operator new override not in effect";
}

}  // namespace
}  // namespace mnemo
