#include "stats/log_histogram.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace mnemo::stats {

namespace {

double log_min() { return std::log10(LogHistogram::kMinNs); }

constexpr double kBucketWidthLog =
    1.0 / static_cast<double>(LogHistogram::kBucketsPerDecade);

/// Build the exact boundary table: for each bucket i, the smallest double
/// x with bucket_index(x) == i. The index function is monotone
/// non-decreasing (log10, scale, clamp and floor all are), so for
/// positive doubles — whose IEEE bit patterns order the same way as their
/// values — the boundary can be found by bisecting bit patterns between a
/// point below the step and a point at-or-above it. 64 compares per
/// bucket, once per process.
std::array<double, 256> build_bounds() {
  std::array<double, 256> bounds;
  bounds[0] = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    // Seed the bracket from the pow estimate of the boundary, then widen
    // until it actually straddles the step (pow is within a few ULP).
    const double guess = std::pow(
        10.0, log_min() + kBucketWidthLog * static_cast<double>(i));
    double lo = guess * (1.0 - 1e-9);
    double hi = guess * (1.0 + 1e-9);
    while (LogHistogram::bucket_index(lo) >= i) lo *= 1.0 - 1e-9;
    while (LogHistogram::bucket_index(hi) < i) hi *= 1.0 + 1e-9;
    std::uint64_t lo_bits = std::bit_cast<std::uint64_t>(lo);
    std::uint64_t hi_bits = std::bit_cast<std::uint64_t>(hi);
    while (hi_bits - lo_bits > 1) {
      const std::uint64_t mid_bits = lo_bits + (hi_bits - lo_bits) / 2;
      const double mid = std::bit_cast<double>(mid_bits);
      if (LogHistogram::bucket_index(mid) >= i) {
        hi_bits = mid_bits;
      } else {
        lo_bits = mid_bits;
      }
    }
    bounds[i] = std::bit_cast<double>(hi_bits);
    MNEMO_ASSERT(LogHistogram::bucket_index(bounds[i]) == i);
    MNEMO_ASSERT(LogHistogram::bucket_index(std::bit_cast<double>(
                     hi_bits - 1)) == i - 1);
  }
  for (std::size_t i = LogHistogram::kBuckets; i < bounds.size(); ++i) {
    bounds[i] = std::numeric_limits<double>::infinity();
  }
  return bounds;
}

}  // namespace

std::size_t LogHistogram::bucket_index(double ns) noexcept {
  double idx =
      (std::log10(std::max(ns, kMinNs)) - log_min()) / kBucketWidthLog;
  idx = std::clamp(idx, 0.0, static_cast<double>(kBuckets) - 1.0);
  return static_cast<std::size_t>(idx);
}

std::span<const double, 256> LogHistogram::bucket_bounds() noexcept {
  static const std::array<double, 256> bounds = build_bounds();
  return bounds;
}

void LogHistogram::add(double ns) noexcept {
  ++counts_[bucket_index(ns)];
  ++total_;
}

double LogHistogram::bucket_lo_ns(std::size_t i) {
  MNEMO_EXPECTS(i < kBuckets);
  return std::pow(10.0, log_min() + kBucketWidthLog * static_cast<double>(i));
}

double LogHistogram::bucket_hi_ns(std::size_t i) {
  return std::pow(10.0,
                  log_min() + kBucketWidthLog * static_cast<double>(i + 1));
}

double LogHistogram::quantile(double q) const {
  MNEMO_EXPECTS(total_ > 0);
  MNEMO_EXPECTS(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(total_);
  double running = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (running + c >= target && c > 0.0) {
      const double frac = (target - running) / c;
      const double lo = std::log10(bucket_lo_ns(i));
      return std::pow(10.0, lo + frac * kBucketWidthLog);
    }
    running += c;
  }
  return bucket_hi_ns(kBuckets - 1);
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

void LogHistogram::restore(
    std::span<const std::uint64_t, kBuckets> counts) noexcept {
  total_ = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts_[i] = counts[i];
    total_ += counts[i];
  }
}

double mixture_quantile(const LogHistogram& a, double wa,
                        const LogHistogram& b, double wb, double q) {
  MNEMO_EXPECTS(wa >= 0.0 && wb >= 0.0 && wa + wb > 0.0);
  MNEMO_EXPECTS(q >= 0.0 && q <= 1.0);
  // Normalize each component to a probability mass, then scale by its
  // mixture weight.
  const double ta =
      a.count() > 0 ? wa / static_cast<double>(a.count()) : 0.0;
  const double tb =
      b.count() > 0 ? wb / static_cast<double>(b.count()) : 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    total += static_cast<double>(a.bucket(i)) * ta +
             static_cast<double>(b.bucket(i)) * tb;
  }
  MNEMO_EXPECTS(total > 0.0);
  const double target = q * total;
  double running = 0.0;
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    const double c = static_cast<double>(a.bucket(i)) * ta +
                     static_cast<double>(b.bucket(i)) * tb;
    if (running + c >= target && c > 0.0) {
      const double frac = (target - running) / c;
      const double lo = std::log10(LogHistogram::bucket_lo_ns(i));
      const double width = std::log10(LogHistogram::bucket_hi_ns(i)) - lo;
      return std::pow(10.0, lo + frac * width);
    }
    running += c;
  }
  return LogHistogram::bucket_hi_ns(LogHistogram::kBuckets - 1);
}

}  // namespace mnemo::stats
