#include "stats/summary.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mnemo::stats {

double percentile_sorted(std::span<const double> sorted, double q) {
  MNEMO_EXPECTS(!sorted.empty());
  MNEMO_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted[sorted.size() - 1];
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double percentile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, q);
}

double mean(std::span<const double> xs) {
  MNEMO_EXPECTS(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::span<const double> xs) { return percentile(xs, 0.5); }

BoxplotStats boxplot(std::span<const double> xs) {
  MNEMO_EXPECTS(!xs.empty());
  std::vector<double> s(xs.begin(), xs.end());
  std::sort(s.begin(), s.end());
  BoxplotStats b;
  b.n = s.size();
  b.min = s.front();
  b.max = s.back();
  b.q1 = percentile_sorted(s, 0.25);
  b.median = percentile_sorted(s, 0.5);
  b.q3 = percentile_sorted(s, 0.75);
  const double iqr = b.q3 - b.q1;
  const double lo_fence = b.q1 - 1.5 * iqr;
  const double hi_fence = b.q3 + 1.5 * iqr;
  b.whisker_lo = b.max;
  b.whisker_hi = b.min;
  for (double x : s) {
    if (x >= lo_fence) {
      b.whisker_lo = x;
      break;
    }
  }
  for (auto it = s.rbegin(); it != s.rend(); ++it) {
    if (*it <= hi_fence) {
      b.whisker_hi = *it;
      break;
    }
  }
  for (double x : s) {
    if (x < lo_fence || x > hi_fence) ++b.outliers;
  }
  return b;
}

}  // namespace mnemo::stats
