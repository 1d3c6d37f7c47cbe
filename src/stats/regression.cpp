#include "stats/regression.hpp"

#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"

namespace mnemo::stats {

std::vector<double> solve_linear(std::vector<std::vector<double>> a,
                                 std::vector<double> b) {
  const std::size_t n = b.size();
  MNEMO_EXPECTS(a.size() == n);
  for (const auto& row : a) MNEMO_EXPECTS(row.size() == n);

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      throw std::runtime_error("solve_linear: singular system");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);

    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }

  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) sum -= a[i][c] * x[c];
    x[i] = sum / a[i][i];
  }
  return x;
}

namespace {

std::vector<double> normal_equations(std::span<const std::vector<double>> rows,
                                     std::span<const double> y,
                                     double lambda) {
  if (rows.size() != y.size()) {
    throw std::invalid_argument("regression: rows/y size mismatch");
  }
  if (rows.empty()) {
    throw std::invalid_argument("regression: empty sample");
  }
  const std::size_t k = rows[0].size();
  for (const auto& r : rows) {
    if (r.size() != k) {
      throw std::invalid_argument("regression: ragged feature rows");
    }
  }

  std::vector<std::vector<double>> xtx(k, std::vector<double>(k, 0.0));
  std::vector<double> xty(k, 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t a = 0; a < k; ++a) {
      xty[a] += rows[i][a] * y[i];
      for (std::size_t b = a; b < k; ++b) {
        xtx[a][b] += rows[i][a] * rows[i][b];
      }
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    xtx[a][a] += lambda;
    for (std::size_t b = 0; b < a; ++b) xtx[a][b] = xtx[b][a];
  }
  return solve_linear(std::move(xtx), std::move(xty));
}

}  // namespace

std::vector<double> least_squares(std::span<const std::vector<double>> rows,
                                  std::span<const double> y) {
  return normal_equations(rows, y, 0.0);
}

std::vector<double> ridge(std::span<const std::vector<double>> rows,
                          std::span<const double> y, double lambda) {
  MNEMO_EXPECTS(lambda >= 0.0);
  return normal_equations(rows, y, lambda);
}

Line fit_line(std::span<const double> x, std::span<const double> y) {
  MNEMO_EXPECTS(x.size() == y.size());
  MNEMO_EXPECTS(x.size() >= 2);
  std::vector<std::vector<double>> rows;
  rows.reserve(x.size());
  for (double xi : x) rows.push_back({1.0, xi});
  const auto beta = least_squares(rows, y);
  return Line{beta[0], beta[1]};
}

Line fit_line_sums(double n, double sum_x, double sum_xx, double sum_y,
                   double sum_xy) {
  MNEMO_EXPECTS(n >= 2.0);
  std::vector<std::vector<double>> xtx = {{n, sum_x}, {sum_x, sum_xx}};
  std::vector<double> xty = {sum_y, sum_xy};
  const auto beta = solve_linear(std::move(xtx), std::move(xty));
  return Line{beta[0], beta[1]};
}

double r_squared(std::span<const double> y, std::span<const double> yhat) {
  MNEMO_EXPECTS(y.size() == yhat.size());
  MNEMO_EXPECTS(!y.empty());
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    ss_res += (y[i] - yhat[i]) * (y[i] - yhat[i]);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace mnemo::stats
