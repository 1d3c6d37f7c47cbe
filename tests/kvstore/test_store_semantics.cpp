// Property tests: all three store architectures implement identical
// key-value semantics. A long randomized op stream is applied to each
// store and to a reference std::map model; observable behaviour (hit or
// miss, record counts, sizes) must match the model exactly, and therefore
// match across stores.

#include <gtest/gtest.h>

#include <map>

#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/factory.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mnemo::kvstore {
namespace {

struct Model {
  std::map<std::uint64_t, std::uint64_t> data;  // key -> size
};

class StoreSemantics
    : public ::testing::TestWithParam<std::tuple<StoreKind, std::uint64_t>> {
};

TEST_P(StoreSemantics, MatchesReferenceModelUnderChurn) {
  const auto [kind, seed] = GetParam();
  hybridmem::HybridMemory memory(
      hybridmem::paper_testbed_with_capacity(256 * util::kMiB));
  StoreConfig cfg;
  cfg.deterministic_service = true;
  auto store = make_store(kind, memory, cfg);
  Model model;
  util::Rng rng(seed);

  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.uniform(0, 299);
    switch (rng.uniform(0, 3)) {
      case 0: {  // put
        const std::uint64_t size = 64 + rng.uniform(0, 4000);
        const OpResult r = store->put(key, size);
        ASSERT_TRUE(r.ok);
        model.data[key] = size;
        break;
      }
      case 1: {  // get
        const OpResult r = store->get(key);
        ASSERT_EQ(r.ok, model.data.contains(key)) << "op " << i;
        break;
      }
      case 2: {  // erase
        const OpResult r = store->erase(key);
        ASSERT_EQ(r.ok, model.data.erase(key) > 0) << "op " << i;
        break;
      }
      default: {  // residency probe: every store places a record under its key
        ASSERT_EQ(memory.locate(key).has_value(), model.data.contains(key));
      }
    }
    ASSERT_EQ(store->record_count(), model.data.size());
  }

  // Final sweep: every model key is retrievable, every other key misses.
  for (std::uint64_t key = 0; key < 300; ++key) {
    ASSERT_EQ(store->get(key).ok, model.data.contains(key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, StoreSemantics,
    ::testing::Combine(::testing::Values(StoreKind::kVermilion,
                                         StoreKind::kCachet,
                                         StoreKind::kDynaStore),
                       ::testing::Values(1u, 42u, 0xfeedu)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(StoreSemantics, AllStoresAgreeOnTheSameOpStream) {
  // One platform per store: record object IDs are key-based, so stores
  // sharing an address space would collide (by design — a key lives on
  // exactly one server of a deployment).
  StoreConfig cfg;
  cfg.deterministic_service = true;
  std::vector<std::unique_ptr<hybridmem::HybridMemory>> memories;
  std::vector<std::unique_ptr<KeyValueStore>> stores;
  for (const StoreKind kind : kAllStoreKinds) {
    memories.push_back(std::make_unique<hybridmem::HybridMemory>(
        hybridmem::paper_testbed_with_capacity(256 * util::kMiB)));
    stores.push_back(make_store(kind, *memories.back(), cfg));
  }
  util::Rng rng(7);
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t key = rng.uniform(0, 99);
    const std::uint64_t op = rng.uniform(0, 2);
    const std::uint64_t size = 64 + rng.uniform(0, 1000);
    bool first_ok = false;
    for (std::size_t s = 0; s < stores.size(); ++s) {
      OpResult r;
      switch (op) {
        case 0:
          r = stores[s]->put(key, size);
          break;
        case 1:
          r = stores[s]->get(key);
          break;
        default:
          r = stores[s]->erase(key);
      }
      if (s == 0) {
        first_ok = r.ok;
      } else {
        ASSERT_EQ(r.ok, first_ok)
            << "op " << i << " diverged on " << stores[s]->name();
      }
    }
  }
}

}  // namespace
}  // namespace mnemo::kvstore
