#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mnemo::stats {

/// Exact quantile of a sample using linear interpolation between order
/// statistics (type-7, the numpy/R default). q in [0, 1]. The input span is
/// copied; use percentile_sorted to avoid the copy.
double percentile(std::span<const double> xs, double q);

/// Same, but `sorted` must already be ascending.
double percentile_sorted(std::span<const double> sorted, double q);

double mean(std::span<const double> xs);
double median(std::span<const double> xs);

/// Five-number summary plus Tukey whiskers/outliers, matching what the
/// paper's Fig 8a boxplots display.
struct BoxplotStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double whisker_lo = 0.0;  ///< lowest sample >= q1 - 1.5*IQR
  double whisker_hi = 0.0;  ///< highest sample <= q3 + 1.5*IQR
  std::size_t n = 0;
  std::size_t outliers = 0;  ///< samples outside the whiskers
};

BoxplotStats boxplot(std::span<const double> xs);

}  // namespace mnemo::stats
