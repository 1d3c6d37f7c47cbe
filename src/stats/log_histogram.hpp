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

  /// The bucket add(ns) increments: floor of the clamped log10 position.
  [[nodiscard]] static std::size_t bucket_index(double ns) noexcept;

  /// Ascending boundary table of bucket_index: bounds[i] is the smallest
  /// double whose bucket_index is i (bounds[0] = -inf so every input has a
  /// predecessor), padded with +inf to 256 entries for a fixed-depth
  /// search. Built once per process by bit-level bisection against
  /// bucket_index itself — monotonicity of the index function makes the
  /// table exact, not approximate, so "largest i with bounds[i] <= x" is
  /// bucket_index(x) bit for bit.
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

/// Quantile of the two-component mixture wa·A + wb·B (weights need not be
/// normalized). This is the tail-estimation primitive: requests served by
/// FastMem draw their latency from the fast baseline's distribution,
/// SlowMem requests from the slow baseline's.
double mixture_quantile(const LogHistogram& a, double wa,
                        const LogHistogram& b, double wb, double q);

}  // namespace mnemo::stats
