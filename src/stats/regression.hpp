#pragma once

#include <span>
#include <vector>

namespace mnemo::stats {

/// Ordinary least squares fit of y ≈ X·beta via the normal equations
/// (XᵀX)·beta = Xᵀy, solved with partially pivoted Gaussian elimination.
/// `rows[i]` is one observation's feature vector; all rows must have equal
/// length. Throws std::invalid_argument on shape mismatch and
/// std::runtime_error if the system is singular.
///
/// This is the Amur et al. methodology the paper uses to split VM prices
/// into per-vCPU and per-GB components (Fig 1), and the learner behind the
/// Tahoe-style comparator in Table IV.
std::vector<double> least_squares(
    std::span<const std::vector<double>> rows, std::span<const double> y);

/// Ridge regression: (XᵀX + lambda·I)·beta = Xᵀy. lambda >= 0; lambda == 0
/// degrades to least_squares.
std::vector<double> ridge(std::span<const std::vector<double>> rows,
                          std::span<const double> y, double lambda);

/// Solve a dense linear system A·x = b in place (A is row-major n×n).
/// Throws std::runtime_error if A is singular.
std::vector<double> solve_linear(std::vector<std::vector<double>> a,
                                 std::vector<double> b);

/// Fit y ≈ a + b·x; returns {a, b}. Convenience wrapper for 1-D trends.
struct Line {
  double intercept = 0.0;
  double slope = 0.0;
  [[nodiscard]] double at(double x) const { return intercept + slope * x; }
  [[nodiscard]] friend bool operator==(const Line&, const Line&) = default;
};
Line fit_line(std::span<const double> x, std::span<const double> y);

/// fit_line from its normal-equation sums: n = Σ1, sum_x = Σx[i],
/// sum_xx = Σx[i]², sum_y = Σy[i] and sum_xy = Σx[i]·y[i]. Given sums
/// accumulated in index order, each as its own chain of additions exactly
/// as fit_line's loop accumulates it, the 2×2 system and its solver are
/// fit_line's, so the returned Line is bit-identical to fit_line(x, y).
/// Used by the compiled replay, which keeps the x-side sums once per
/// campaign (x, the byte stream, is campaign-invariant) and takes the
/// y-side ones in its replay loop, with no per-row feature vectors.
Line fit_line_sums(double n, double sum_x, double sum_xx, double sum_y,
                   double sum_xy);

/// Coefficient of determination of predictions vs observations.
double r_squared(std::span<const double> y, std::span<const double> yhat);

}  // namespace mnemo::stats
