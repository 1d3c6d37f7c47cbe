#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace mnemo::stats {
namespace {

TEST(Percentile, KnownOrderStatistics) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  // Interpolated: q=0.1 over positions 0..4 -> pos 0.4 -> 1.4
  EXPECT_DOUBLE_EQ(percentile(xs, 0.1), 1.4);
}

TEST(Percentile, SingleSample) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.99), 7.0);
}

class PercentileMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotonic, NonDecreasingInQ) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.gaussian());
  double prev = percentile(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = percentile(xs, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotonic,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(MeanMedian, Basics) {
  const std::vector<double> xs = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(median(xs), 4.0);
}

TEST(Boxplot, FiveNumberSummaryAndWhiskers) {
  // 1..11 plus an outlier at 100.
  std::vector<double> xs;
  for (int i = 1; i <= 11; ++i) xs.push_back(i);
  xs.push_back(100.0);
  const BoxplotStats b = boxplot(xs);
  EXPECT_EQ(b.n, 12u);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
  EXPECT_GT(b.q3, b.median);
  EXPECT_GT(b.median, b.q1);
  EXPECT_EQ(b.outliers, 1u);
  EXPECT_LE(b.whisker_hi, 11.0);  // 100 is outside the upper fence
  EXPECT_DOUBLE_EQ(b.whisker_lo, 1.0);
}

TEST(Boxplot, AllEqualSamples) {
  const std::vector<double> xs(10, 3.0);
  const BoxplotStats b = boxplot(xs);
  EXPECT_DOUBLE_EQ(b.q1, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.0);
  EXPECT_DOUBLE_EQ(b.whisker_lo, 3.0);
  EXPECT_DOUBLE_EQ(b.whisker_hi, 3.0);
  EXPECT_EQ(b.outliers, 0u);
}

}  // namespace
}  // namespace mnemo::stats
