#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace mnemo::stats {

/// Log-scale latency histogram: fixed range [10 ns, 10 s), 20 buckets per
/// decade (180 buckets total), plus saturating edge buckets. Default
/// constructible and cheap to copy, so it can ride along in measurement
/// structs; used to carry full latency distributions out of baseline runs
/// for mixture-based tail estimation.
class LogHistogram {
 public:
  static constexpr double kMinNs = 10.0;
  static constexpr double kMaxNs = 10.0e9;
  static constexpr std::size_t kBucketsPerDecade = 20;
  static constexpr std::size_t kDecades = 9;
  static constexpr std::size_t kBuckets = kBucketsPerDecade * kDecades;

  void add(double ns) noexcept;

  /// The bucket add(ns) increments: floor of the clamped log10 position,
  /// (log10(max(ns, kMinNs)) - 1) · 20 clamped to [0, kBuckets - 1]. That
  /// formula is the definition; it is evaluated only to build the lookup
  /// tables, once per process. A lookup reads a candidate bucket from a
  /// table indexed by the exponent and top 4 mantissa bits of `ns` — one
  /// cell spans 1/16 of an octave, narrower than a 1/20-decade bucket, so
  /// it holds at most one bucket boundary — and makes one compare against
  /// bucket_bounds(). O(1), no log10, and the formula's index bit for bit
  /// on every double; NaN lands in bucket 0.
  [[nodiscard]] static std::size_t bucket_index(double ns) noexcept;

  /// Ascending boundary table of bucket_index: bounds[i] is the smallest
  /// double whose bucket_index is i (bounds[0] = -inf so every input has a
  /// predecessor), padded with +inf to 256 entries. Built once per process
  /// by bit-level bisection against the log10 formula — its monotonicity
  /// makes the table exact, not approximate, so bucket_index(x) is the
  /// largest i < kBuckets with bounds[i] <= x, bit for bit.
  [[nodiscard]] static std::span<const double, 256> bucket_bounds() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_[i];
  }

  /// Lower/upper bound of bucket i in ns.
  [[nodiscard]] static double bucket_lo_ns(std::size_t i);
  [[nodiscard]] static double bucket_hi_ns(std::size_t i);

  /// Quantile with log-linear interpolation inside the bucket. Requires a
  /// non-empty histogram.
  [[nodiscard]] double quantile(double q) const;

  /// Accumulate another histogram (e.g. across repeated runs).
  void merge(const LogHistogram& other) noexcept;

  /// Overwrite the bucket counts (artifact deserialization). The total is
  /// recomputed — every add() lands in exactly one bucket, so the sum of
  /// buckets is the count by construction.
  void restore(std::span<const std::uint64_t, kBuckets> counts) noexcept;

  [[nodiscard]] friend bool operator==(const LogHistogram&,
                                       const LogHistogram&) = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// The type-7 p95 and p99 of a sample: the same doubles
/// stats::percentile returns.
struct TailPercentiles {
  double p95 = 0.0;
  double p99 = 0.0;
};

/// stats::percentile(samples, 0.95) and (…, 0.99) without a sort, and with
/// selection confined to the histogram's tail: the bucket of `hist` that
/// holds p95's lower sorted rank bounds a partition of the samples below
/// which exactly the counted samples fall (the bucket bounds are exact), so
/// nth_element runs over the samples from that bucket up only, and p99's
/// over p95's right partition. The interpolation partner of each rank is
/// its right partition's minimum. `hist` must count exactly `samples` (one
/// add() each), which must be non-empty and NaN-free; they are reordered.
TailPercentiles tail_percentiles(std::span<double> samples,
                                 const LogHistogram& hist);

/// Quantile of the two-component mixture wa·A + wb·B (weights need not be
/// normalized). This is the tail-estimation primitive: requests served by
/// FastMem draw their latency from the fast baseline's distribution,
/// SlowMem requests from the slow baseline's.
double mixture_quantile(const LogHistogram& a, double wa,
                        const LogHistogram& b, double wb, double q);

}  // namespace mnemo::stats
