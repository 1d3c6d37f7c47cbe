#include <gtest/gtest.h>

#include <vector>

#include "stats/cdf.hpp"
#include "util/rng.hpp"

namespace mnemo::stats {
namespace {

TEST(EmpiricalCdf, StepFunctionValues) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInverse) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0, 50.0};
  const EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
}

TEST(EmpiricalCdf, CurveIsMonotonic) {
  util::Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.gaussian());
  const EmpiricalCdf cdf(xs);
  const auto curve = cdf.curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(CumulativeShare, SumsToOneAndMonotone) {
  const std::vector<std::uint64_t> counts = {5, 0, 3, 2};
  const auto share = cumulative_share(counts);
  ASSERT_EQ(share.size(), 4u);
  EXPECT_DOUBLE_EQ(share[0], 0.5);
  EXPECT_DOUBLE_EQ(share[1], 0.5);
  EXPECT_DOUBLE_EQ(share[2], 0.8);
  EXPECT_DOUBLE_EQ(share[3], 1.0);
}

}  // namespace
}  // namespace mnemo::stats
