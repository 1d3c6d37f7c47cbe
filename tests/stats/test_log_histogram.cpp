#include "stats/log_histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace mnemo::stats {
namespace {

TEST(LogHistogram, DefaultIsEmpty) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
}

TEST(LogHistogram, BucketBoundsAreGeometric) {
  const double ratio = LogHistogram::bucket_hi_ns(0) /
                       LogHistogram::bucket_lo_ns(0);
  for (std::size_t i = 1; i < 30; ++i) {
    EXPECT_NEAR(LogHistogram::bucket_hi_ns(i) / LogHistogram::bucket_lo_ns(i),
                ratio, 1e-9);
    EXPECT_NEAR(LogHistogram::bucket_lo_ns(i),
                LogHistogram::bucket_hi_ns(i - 1), 1e-6);
  }
  EXPECT_DOUBLE_EQ(LogHistogram::bucket_lo_ns(0), LogHistogram::kMinNs);
}

TEST(LogHistogram, QuantileTracksExactPercentiles) {
  LogHistogram h;
  util::Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 100'000; ++i) {
    // Lognormal latencies around 100 us.
    const double ns = 1e5 * std::exp(0.5 * rng.gaussian());
    h.add(ns);
    xs.push_back(ns);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = percentile(xs, q);
    EXPECT_NEAR(h.quantile(q) / exact, 1.0, 0.13) << "q=" << q;
  }
}

TEST(LogHistogram, SaturatesOutOfRange) {
  LogHistogram h;
  h.add(0.001);   // below min
  h.add(1e12);    // above max
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(LogHistogram::kBuckets - 1), 1u);
}

TEST(LogHistogram, MergeSumsCounts) {
  LogHistogram a;
  LogHistogram b;
  a.add(100.0);
  b.add(100.0);
  b.add(1e6);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_NEAR(a.quantile(0.0), 100.0, 30.0);
}

TEST(MixtureQuantile, DegeneratesToComponentQuantiles) {
  LogHistogram fast;
  LogHistogram slow;
  util::Rng rng(4);
  for (int i = 0; i < 50'000; ++i) {
    fast.add(1e4 * (1.0 + 0.1 * rng.gaussian()));
    slow.add(1e6 * (1.0 + 0.1 * rng.gaussian()));
  }
  EXPECT_NEAR(mixture_quantile(fast, 1.0, slow, 0.0, 0.5),
              fast.quantile(0.5), fast.quantile(0.5) * 0.05);
  EXPECT_NEAR(mixture_quantile(fast, 0.0, slow, 1.0, 0.5),
              slow.quantile(0.5), slow.quantile(0.5) * 0.05);
}

TEST(MixtureQuantile, WeightsShiftTheTail) {
  LogHistogram fast;
  LogHistogram slow;
  util::Rng rng(5);
  for (int i = 0; i < 50'000; ++i) {
    fast.add(1e4 * (1.0 + 0.05 * rng.gaussian()));
    slow.add(1e6 * (1.0 + 0.05 * rng.gaussian()));
  }
  // 90% of requests fast: the p95 straddles the slow component.
  const double p95 = mixture_quantile(fast, 0.9, slow, 0.1, 0.95);
  EXPECT_GT(p95, 5e5);
  // 99% fast: the p95 stays in the fast component.
  const double p95_mostly_fast = mixture_quantile(fast, 0.99, slow, 0.01, 0.95);
  EXPECT_LT(p95_mostly_fast, 5e4);
  // Monotone in the slow weight.
  double prev = 0.0;
  for (const double ws : {0.0, 0.1, 0.3, 0.7, 1.0}) {
    const double v = mixture_quantile(fast, 1.0 - ws, slow, ws, 0.99);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LogHistogram, BucketBoundsTableIsExactAtEveryBoundary) {
  // bucket_bounds() is the 256-entry partition table of bucket_index():
  // bounds[i] must be the smallest double classified into bucket i, so a
  // lookup by "largest i with bounds[i] <= x" reproduces bucket_index()
  // bit for bit. Probe every boundary and its one-ulp neighbour.
  const std::span<const double, 256> bounds = LogHistogram::bucket_bounds();
  EXPECT_EQ(bounds[0], -std::numeric_limits<double>::infinity());
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    ASSERT_LT(bounds[i - 1], bounds[i]) << "i=" << i;
    ASSERT_EQ(LogHistogram::bucket_index(bounds[i]), i) << "i=" << i;
    ASSERT_EQ(LogHistogram::bucket_index(std::nextafter(bounds[i], 0.0)),
              i - 1)
        << "i=" << i;
  }
  // The padding past the live buckets is +inf so no finite sample can
  // ever partition beyond kBuckets - 1.
  for (std::size_t i = LogHistogram::kBuckets; i < 256; ++i) {
    ASSERT_EQ(bounds[i], std::numeric_limits<double>::infinity())
        << "i=" << i;
  }
}

/// The bucket layout's definition, copied from the library's private
/// reference: floor of the clamped log10 position.
std::size_t formula_bucket(double ns) {
  double idx = (std::log10(std::max(ns, LogHistogram::kMinNs)) -
                std::log10(LogHistogram::kMinNs)) /
               (1.0 / static_cast<double>(LogHistogram::kBucketsPerDecade));
  idx = std::clamp(idx, 0.0,
                   static_cast<double>(LogHistogram::kBuckets) - 1.0);
  return static_cast<std::size_t>(idx);
}

double ulps_away(double x, std::int64_t ulps) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) +
                               static_cast<std::uint64_t>(ulps));
}

TEST(LogHistogram, BucketIndexIsTheLog10FormulaBitForBit) {
  // The O(1) lookup (a table of candidates per 1/16 octave plus one
  // compare against bucket_bounds()) must classify every double as the
  // formula does.
  const auto check = [](double x) {
    ASSERT_EQ(LogHistogram::bucket_index(x), formula_bucket(x))
        << "x=" << x << " bits=" << std::bit_cast<std::uint64_t>(x);
  };
  const std::span<const double, 256> bounds = LogHistogram::bucket_bounds();
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    for (std::int64_t ulps = -2; ulps <= 2; ++ulps) {
      check(ulps_away(bounds[i], ulps));
    }
  }
  // Every table-cell edge — a cell is the top 16 bits of a positive
  // double, its exponent and top 4 mantissa bits — and the double below
  // it, from 1 ns to past the top of the range.
  for (std::uint64_t cell = std::bit_cast<std::uint64_t>(1.0) >> 48;
       cell <= (std::bit_cast<std::uint64_t>(1e11) >> 48); ++cell) {
    const double edge = std::bit_cast<double>(cell << 48);
    check(edge);
    check(ulps_away(edge, -1));
  }
  util::Rng rng(0x1065);
  for (int i = 0; i < 1'000'000; ++i) {
    check(std::pow(10.0, -3.0 + 15.0 * rng.next_double()));
  }
  for (const double x :
       {0.0, -0.0, -1.0, std::numeric_limits<double>::denorm_min(), 10.0,
        1e10, DBL_MAX, std::numeric_limits<double>::infinity()}) {
    check(x);
  }
}

/// tail_percentiles over a copy of `xs` against stats::percentile, bit for
/// bit.
void expect_tail_matches_sort(const std::vector<double>& xs) {
  LogHistogram h;
  for (const double x : xs) h.add(x);
  std::vector<double> scratch = xs;
  const TailPercentiles t = tail_percentiles(scratch, h);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.p95),
            std::bit_cast<std::uint64_t>(percentile(xs, 0.95)))
      << "n=" << xs.size() << " p95=" << t.p95;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.p99),
            std::bit_cast<std::uint64_t>(percentile(xs, 0.99)))
      << "n=" << xs.size() << " p99=" << t.p99;
}

std::vector<double> shuffled(std::vector<double> xs, std::uint64_t seed) {
  util::Rng rng(seed);
  std::shuffle(xs.begin(), xs.end(), rng);
  return xs;
}

TEST(TailPercentiles, MatchPercentileAtEverySampleCount) {
  util::Rng rng(0x7a11);
  for (const std::size_t n : {1u, 2u, 3u, 20u, 21u, 1000u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      // Lognormal latencies around 10 us, spread over many buckets.
      xs.push_back(1e4 * std::exp(1.5 * rng.gaussian()));
    }
    expect_tail_matches_sort(xs);
  }
}

TEST(TailPercentiles, MatchPercentileOnDegenerateSamples) {
  const std::span<const double, 256> bounds = LogHistogram::bucket_bounds();
  // All equal.
  expect_tail_matches_sort(std::vector<double>(1000, 512.0));
  // All distinct inside one bucket.
  std::vector<double> one_bucket;
  for (int i = 0; i < 1000; ++i) {
    one_bucket.push_back(bounds[60] +
                         (bounds[61] - bounds[60]) * (i / 1000.0));
  }
  expect_tail_matches_sort(shuffled(one_bucket, 1));
  // Ties exactly at the partition bound: p95's lower rank (949 of 1000)
  // falls in the bucket whose lower bound 60 samples sit on exactly, with
  // more samples one ulp below it and the rest above.
  std::vector<double> ties(890, 100.0);
  ties.insert(ties.end(), 30, std::nextafter(bounds[100], 0.0));
  ties.insert(ties.end(), 60, bounds[100]);
  ties.insert(ties.end(), 20, bounds[101]);
  ASSERT_EQ(ties.size(), 1000u);
  expect_tail_matches_sort(shuffled(ties, 2));
  // Below the range (bucket 0) and above it (the last bucket).
  std::vector<double> edges;
  for (int i = 0; i < 500; ++i) {
    edges.push_back(10.0 * i / 500.0);
    edges.push_back(1e10 * (1.0 + i));
  }
  expect_tail_matches_sort(shuffled(edges, 3));
  std::vector<double> low(1000);
  for (int i = 0; i < 1000; ++i) low[i] = i % 7 == 0 ? 10.0 : i * 1e-3;
  expect_tail_matches_sort(shuffled(low, 4));
  std::vector<double> high(1000);
  for (int i = 0; i < 1000; ++i) high[i] = 1e10 + i * 1e7;
  expect_tail_matches_sort(shuffled(high, 5));
}

TEST(MixtureQuantile, UnnormalizedWeightsAreEquivalent) {
  LogHistogram a;
  LogHistogram b;
  for (int i = 0; i < 1000; ++i) {
    a.add(1e3 + i);
    b.add(1e5 + i);
  }
  EXPECT_NEAR(mixture_quantile(a, 0.5, b, 0.5, 0.9),
              mixture_quantile(a, 5.0, b, 5.0, 0.9), 1e-6);
}

}  // namespace
}  // namespace mnemo::stats
