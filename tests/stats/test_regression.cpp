#include "stats/regression.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace mnemo::stats {
namespace {

TEST(SolveLinear, TwoByTwo) {
  // 2x + y = 5 ; x - y = 1  ->  x = 2, y = 1
  const auto x = solve_linear({{2, 1}, {1, -1}}, {5, 1});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SolveLinear, RequiresPivoting) {
  // Leading zero forces a row swap.
  const auto x = solve_linear({{0, 1}, {1, 0}}, {3, 4});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, SingularThrows) {
  EXPECT_THROW(solve_linear({{1, 2}, {2, 4}}, {1, 2}), std::runtime_error);
}

TEST(LeastSquares, RecoversExactLinearModel) {
  // y = 3*a + 0.5*b with no noise.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const double a = rng.next_double() * 10.0;
    const double b = rng.next_double() * 100.0;
    rows.push_back({a, b});
    y.push_back(3.0 * a + 0.5 * b);
  }
  const auto beta = least_squares(rows, y);
  EXPECT_NEAR(beta[0], 3.0, 1e-9);
  EXPECT_NEAR(beta[1], 0.5, 1e-9);
}

TEST(LeastSquares, NoisyRecoveryWithinTolerance) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  util::Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.next_double() * 10.0;
    rows.push_back({1.0, a});
    y.push_back(7.0 + 2.0 * a + rng.gaussian() * 0.5);
  }
  const auto beta = least_squares(rows, y);
  EXPECT_NEAR(beta[0], 7.0, 0.1);
  EXPECT_NEAR(beta[1], 2.0, 0.02);
}

TEST(LeastSquares, ShapeMismatchThrows) {
  std::vector<std::vector<double>> rows = {{1.0, 2.0}, {1.0}};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(least_squares(rows, y), std::invalid_argument);
  const std::vector<double> short_y = {1.0};
  std::vector<std::vector<double>> ok_rows = {{1.0}, {2.0}};
  EXPECT_THROW(least_squares(ok_rows, short_y), std::invalid_argument);
}

TEST(Ridge, ShrinksCoefficients) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.next_double();
    rows.push_back({a});
    y.push_back(5.0 * a);
  }
  const auto exact = ridge(rows, y, 0.0);
  const auto shrunk = ridge(rows, y, 100.0);
  EXPECT_NEAR(exact[0], 5.0, 1e-9);
  EXPECT_LT(shrunk[0], exact[0]);
  EXPECT_GT(shrunk[0], 0.0);
}

TEST(Ridge, RegularizesSingularSystem) {
  // Perfectly collinear features: plain LS throws, ridge solves.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 1; i <= 10; ++i) {
    rows.push_back({static_cast<double>(i), 2.0 * i});
    y.push_back(3.0 * i);
  }
  EXPECT_THROW(least_squares(rows, y), std::runtime_error);
  const auto beta = ridge(rows, y, 1e-3);
  // Prediction is still right even if the split is regularized.
  EXPECT_NEAR(beta[0] * 4.0 + beta[1] * 8.0, 12.0, 0.01);
}

TEST(FitLine, InterceptAndSlope) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
  const Line line = fit_line(x, y);
  EXPECT_NEAR(line.intercept, 1.0, 1e-9);
  EXPECT_NEAR(line.slope, 2.0, 1e-9);
  EXPECT_NEAR(line.at(10.0), 21.0, 1e-9);
}

TEST(FitLine, SumsGiveTheSameLineBitForBit) {
  util::Rng rng(0xf17);
  std::vector<double> x;
  std::vector<double> y;
  double n = 0.0;
  double sum_x = 0.0;
  double sum_xx = 0.0;
  double sum_y = 0.0;
  double sum_xy = 0.0;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(static_cast<double>(64 << (i % 9)));
    y.push_back(300.0 + 0.02 * x.back() + 40.0 * rng.gaussian());
    n += 1.0;
    sum_x += x.back();
    sum_xx += x.back() * x.back();
    sum_y += y.back();
    sum_xy += x.back() * y.back();
  }
  EXPECT_EQ(fit_line_sums(n, sum_x, sum_xx, sum_y, sum_xy), fit_line(x, y));
}

TEST(RSquared, PerfectAndPoorFits) {
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(y, y), 1.0);
  const std::vector<double> mean_only = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(r_squared(y, mean_only), 0.0);
}

}  // namespace
}  // namespace mnemo::stats
