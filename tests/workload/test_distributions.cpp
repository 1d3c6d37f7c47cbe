#include "workload/key_distribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace mnemo::workload {
namespace {

constexpr std::uint64_t kKeys = 1000;
constexpr int kDraws = 100'000;

std::vector<std::uint64_t> histogram_of(KeyDistribution& dist,
                                        std::uint64_t seed = 7) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> counts(dist.key_count(), 0);
  for (int i = 0; i < kDraws; ++i) ++counts[dist.next(rng)];
  return counts;
}

// ------------------------- properties common to all kinds (TEST_P) ------

class AnyDistribution : public ::testing::TestWithParam<DistributionKind> {};

TEST_P(AnyDistribution, DrawsStayInRange) {
  auto dist = make_distribution(GetParam(), kKeys);
  util::Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_LT(dist->next(rng), kKeys);
  }
}

TEST_P(AnyDistribution, SameSeedIsDeterministic) {
  auto d1 = make_distribution(GetParam(), kKeys);
  auto d2 = make_distribution(GetParam(), kKeys);
  util::Rng r1(99);
  util::Rng r2(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(d1->next(r1), d2->next(r2));
  }
}

TEST_P(AnyDistribution, ReportsKeyCountAndName) {
  auto dist = make_distribution(GetParam(), kKeys);
  EXPECT_EQ(dist->key_count(), kKeys);
  EXPECT_EQ(dist->name(), to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AnyDistribution,
    ::testing::Values(DistributionKind::kUniform, DistributionKind::kZipfian,
                      DistributionKind::kScrambledZipfian,
                      DistributionKind::kLatest, DistributionKind::kHotspot,
                      DistributionKind::kSequential),
    [](const auto& info) { return std::string(to_string(info.param)); });

// ------------------------------------------------ kind-specific behaviour

TEST(Uniform, RoughlyFlatHistogram) {
  UniformDistribution dist(100);
  const auto counts = histogram_of(dist);
  const double expected = static_cast<double>(kDraws) / 100.0;
  for (const auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.25);
  }
}

TEST(Zipfian, RankZeroIsHottestAndMonotoneInRank) {
  ZipfianDistribution dist(kKeys, 0.99);
  const auto counts = histogram_of(dist);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[200]);
  // Head share: with theta=0.99 the top 1% of ranks should hold well over
  // 20% of the mass.
  std::uint64_t head = 0;
  for (std::size_t i = 0; i < 10; ++i) head += counts[i];
  EXPECT_GT(static_cast<double>(head) / kDraws, 0.2);
}

TEST(Zipfian, ThetaControlsSkew) {
  ZipfianDistribution mild(kKeys, 0.5);
  ZipfianDistribution steep(kKeys, 0.99);
  const auto mild_counts = histogram_of(mild);
  const auto steep_counts = histogram_of(steep);
  EXPECT_GT(steep_counts[0], mild_counts[0]);
}

TEST(ScrambledZipfian, SamePopularityMassScatteredAcrossKeys) {
  ZipfianDistribution plain(kKeys, 0.99);
  ScrambledZipfianDistribution scrambled(kKeys, 0.99);
  auto plain_counts = histogram_of(plain);
  auto scrambled_counts = histogram_of(scrambled);
  // Scrambling must not concentrate mass at the low-ID head.
  std::uint64_t plain_head = 0;
  std::uint64_t scrambled_head = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    plain_head += plain_counts[i];
    scrambled_head += scrambled_counts[i];
  }
  EXPECT_GT(plain_head, scrambled_head * 3);
  // But the sorted popularity profile is comparable: a heavy top key
  // exists somewhere in the space.
  std::sort(scrambled_counts.rbegin(), scrambled_counts.rend());
  EXPECT_GT(static_cast<double>(scrambled_counts[0]) / kDraws, 0.02);
}

TEST(Latest, MassConcentratesOnHighestIds) {
  LatestDistribution dist(kKeys, 0.99);
  const auto counts = histogram_of(dist);
  EXPECT_GT(counts[kKeys - 1], counts[kKeys - 100]);
  std::uint64_t newest_decile = 0;
  for (std::size_t i = kKeys - 100; i < kKeys; ++i) newest_decile += counts[i];
  EXPECT_GT(static_cast<double>(newest_decile) / kDraws, 0.5);
}

TEST(Hotspot, OpAndKeyFractionsAreHonored) {
  HotspotDistribution dist(kKeys, 0.2, 0.8);
  const auto counts = histogram_of(dist);
  std::uint64_t hot = 0;
  for (std::size_t i = 0; i < 200; ++i) hot += counts[i];
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.8, 0.01);
  // Within the hot set accesses are uniform.
  EXPECT_NEAR(static_cast<double>(counts[0]),
              static_cast<double>(counts[199]),
              static_cast<double>(counts[0]) * 0.3);
}

TEST(Hotspot, AccessorsExposeParameters) {
  HotspotDistribution dist(kKeys, 0.25, 0.9);
  EXPECT_DOUBLE_EQ(dist.hot_key_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(dist.hot_op_fraction(), 0.9);
}

TEST(Latest, DriftSweepsThePivotAcrossTheKeySpace) {
  // With drift that traverses the whole key space over the draws, total
  // popularity flattens out — no static hot set survives.
  const double drift = static_cast<double>(kKeys) / kDraws;
  LatestDistribution drifting(kKeys, 0.99, drift);
  const auto counts = histogram_of(drifting);
  std::uint64_t newest_decile = 0;
  for (std::size_t i = kKeys - 100; i < kKeys; ++i) newest_decile += counts[i];
  EXPECT_LT(static_cast<double>(newest_decile) / kDraws, 0.3)
      << "drift must erase the static high-ID concentration";
  EXPECT_DOUBLE_EQ(drifting.drift(), drift);
}

TEST(Latest, ZeroDriftMatchesClassicBehaviour) {
  LatestDistribution a(kKeys, 0.99);
  LatestDistribution b(kKeys, 0.99, 0.0);
  util::Rng r1(4);
  util::Rng r2(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(r1), b.next(r2));
  }
}

TEST(Sequential, CyclesThroughKeySpace) {
  SequentialDistribution dist(5);
  util::Rng rng(0);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t k = 0; k < 5; ++k) {
      ASSERT_EQ(dist.next(rng), k);
    }
  }
}

}  // namespace
}  // namespace mnemo::workload
