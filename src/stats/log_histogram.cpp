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

/// The definition of the bucket layout: floor of the clamped log10
/// position. Only the table builders below evaluate it.
std::size_t reference_bucket(double ns) {
  double idx = (std::log10(std::max(ns, LogHistogram::kMinNs)) - log_min()) /
               kBucketWidthLog;
  idx = std::clamp(idx, 0.0,
                   static_cast<double>(LogHistogram::kBuckets) - 1.0);
  return static_cast<std::size_t>(idx);
}

/// A lookup cell: the top 16 bits of a positive double, its biased
/// exponent and top 4 mantissa bits — 1/16 of an octave, about 0.026
/// decades against a bucket's 0.05, so a cell holds at most one bucket
/// boundary. The cells of [kMinNs, kMaxNs] are tabled.
constexpr int kCellShift = 48;
constexpr std::uint64_t cell_of(double x) {
  return std::bit_cast<std::uint64_t>(x) >> kCellShift;
}
constexpr std::uint64_t kFirstCell = cell_of(LogHistogram::kMinNs);
constexpr std::size_t kCells =
    cell_of(LogHistogram::kMaxNs) - kFirstCell + 1;

struct Tables {
  std::array<double, 256> bounds;
  /// candidate[c]: the bucket of cell kFirstCell + c's smallest double.
  std::array<std::uint8_t, kCells> candidate;
};

/// Build the exact boundary table: for each bucket i, the smallest double
/// x with reference_bucket(x) == i. The formula is monotone
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
    while (reference_bucket(lo) >= i) lo *= 1.0 - 1e-9;
    while (reference_bucket(hi) < i) hi *= 1.0 + 1e-9;
    std::uint64_t lo_bits = std::bit_cast<std::uint64_t>(lo);
    std::uint64_t hi_bits = std::bit_cast<std::uint64_t>(hi);
    while (hi_bits - lo_bits > 1) {
      const std::uint64_t mid_bits = lo_bits + (hi_bits - lo_bits) / 2;
      const double mid = std::bit_cast<double>(mid_bits);
      if (reference_bucket(mid) >= i) {
        hi_bits = mid_bits;
      } else {
        lo_bits = mid_bits;
      }
    }
    bounds[i] = std::bit_cast<double>(hi_bits);
    MNEMO_ASSERT(reference_bucket(bounds[i]) == i);
    MNEMO_ASSERT(reference_bucket(std::bit_cast<double>(hi_bits - 1)) ==
                 i - 1);
  }
  for (std::size_t i = LogHistogram::kBuckets; i < bounds.size(); ++i) {
    bounds[i] = std::numeric_limits<double>::infinity();
  }
  return bounds;
}

Tables build_tables() {
  Tables t{};
  t.bounds = build_bounds();
  for (std::size_t c = 0; c < kCells; ++c) {
    const std::uint64_t cell = kFirstCell + c;
    const std::size_t i =
        reference_bucket(std::bit_cast<double>(cell << kCellShift));
    // The cell's largest double is at most one bucket further, so within
    // the cell the formula is i below bounds[i + 1] and i + 1 from it on.
    MNEMO_ASSERT(reference_bucket(std::bit_cast<double>(
                     ((cell + 1) << kCellShift) - 1)) <= i + 1);
    t.candidate[c] = static_cast<std::uint8_t>(i);
  }
  return t;
}

const Tables& tables() {
  static const Tables t = build_tables();
  return t;
}

/// Sorted rank and interpolation weight of the type-7 quantile q over n
/// samples: stats::percentile_sorted's arithmetic.
struct Rank {
  std::size_t lo = 0;
  double frac = 0.0;
};

Rank rank_of(double q, std::size_t n) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, pos - static_cast<double>(lo)};
}

/// Place sorted rank r.lo at samples[r.lo] by selection over
/// samples[from, n), which must hold exactly the ranks from `from` up, and
/// interpolate it with rank r.lo + 1, the minimum of the right partition
/// (exact and order-independent on NaN-free samples) — the double
/// stats::percentile_sorted computes.
double select_rank(std::span<double> samples, std::size_t from, Rank r) {
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(samples.begin() + static_cast<std::ptrdiff_t>(from), nth,
                   samples.end());
  if (r.lo + 1 >= samples.size()) return *nth;
  const double next = *std::min_element(nth + 1, samples.end());
  return *nth * (1.0 - r.frac) + next * r.frac;
}

}  // namespace

std::size_t LogHistogram::bucket_index(double ns) noexcept {
  if (!(ns >= kMinNs)) return 0;
  // bounds[kBuckets - 1] (10^9.95) lies below kMaxNs.
  if (!(ns < kMaxNs)) return kBuckets - 1;
  const Tables& t = tables();
  const std::size_t i = t.candidate[cell_of(ns) - kFirstCell];
  return i + static_cast<std::size_t>(ns >= t.bounds[i + 1]);
}

std::span<const double, 256> LogHistogram::bucket_bounds() noexcept {
  return tables().bounds;
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

TailPercentiles tail_percentiles(std::span<double> samples,
                                 const LogHistogram& hist) {
  const std::size_t n = samples.size();
  MNEMO_EXPECTS(n > 0 && hist.count() == n);
  const Rank r95 = rank_of(0.95, n);
  const Rank r99 = rank_of(0.99, n);
  // The bucket that holds sorted rank r95.lo: the first whose running
  // count passes it. The samples below its lower bound are exactly the
  // ones counted in the buckets under it, so they hold ranks [0, below).
  std::size_t bucket = 0;
  std::uint64_t below = 0;
  while (below + hist.bucket(bucket) <= r95.lo) {
    below += hist.bucket(bucket++);
  }
  const double bound = LogHistogram::bucket_bounds()[bucket];
  const auto upper = std::partition(samples.begin(), samples.end(),
                                    [bound](double x) { return x < bound; });
  MNEMO_ASSERT(static_cast<std::uint64_t>(upper - samples.begin()) == below &&
               "the histogram counts exactly these samples");
  TailPercentiles t;
  t.p95 = select_rank(samples, static_cast<std::size_t>(below), r95);
  t.p99 = select_rank(samples, r95.lo, r99);
  return t;
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
