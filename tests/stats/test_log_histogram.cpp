#include "stats/log_histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
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
