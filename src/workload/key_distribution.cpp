#include "workload/key_distribution.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace mnemo::workload {

// ---------------------------------------------------------------- uniform

UniformDistribution::UniformDistribution(std::uint64_t key_count)
    : n_(key_count) {
  MNEMO_EXPECTS(key_count > 0);
}

std::uint64_t UniformDistribution::next(util::Rng& rng) {
  return rng.uniform(0, n_ - 1);
}

// ---------------------------------------------------------------- zipfian

double ZipfianDistribution::zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

ZipfianDistribution::ZipfianDistribution(std::uint64_t key_count, double theta)
    : n_(key_count), theta_(theta) {
  MNEMO_EXPECTS(key_count > 0);
  MNEMO_EXPECTS(theta > 0.0 && theta < 1.0);
  zetan_ = zeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  const double zeta2 = zeta(2, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
  half_pow_theta_ = 1.0 + std::pow(0.5, theta_);
}

std::uint64_t ZipfianDistribution::next(util::Rng& rng) {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < half_pow_theta_) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

// ------------------------------------------------------ scrambled zipfian

ScrambledZipfianDistribution::ScrambledZipfianDistribution(
    std::uint64_t key_count, double theta)
    : base_(key_count, theta) {}

std::uint64_t ScrambledZipfianDistribution::next(util::Rng& rng) {
  const std::uint64_t rank = base_.next(rng);
  return util::fnv1a64(rank) % base_.key_count();
}

// ----------------------------------------------------------------- latest

LatestDistribution::LatestDistribution(std::uint64_t key_count, double theta,
                                       double drift_keys_per_request)
    : base_(key_count, theta), drift_(drift_keys_per_request) {
  MNEMO_EXPECTS(drift_keys_per_request >= 0.0);
}

std::uint64_t LatestDistribution::next(util::Rng& rng) {
  const std::uint64_t n = base_.key_count();
  const std::uint64_t back = base_.next(rng);  // 0 = most recent
  // The pivot starts at the newest key and advances with freshness drift;
  // requests wrap around the key space modulo n.
  const auto advance = static_cast<std::uint64_t>(
      drift_ * static_cast<double>(requests_));
  ++requests_;
  const std::uint64_t pivot = (n - 1 + advance) % n;
  return (pivot + n - back % n) % n;
}

// ---------------------------------------------------------------- hotspot

HotspotDistribution::HotspotDistribution(std::uint64_t key_count,
                                         double hot_key_fraction,
                                         double hot_op_fraction)
    : n_(key_count),
      hot_key_fraction_(hot_key_fraction),
      hot_op_fraction_(hot_op_fraction),
      hot_keys_(static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(key_count) * hot_key_fraction))) {
  MNEMO_EXPECTS(key_count > 0);
  MNEMO_EXPECTS(hot_key_fraction > 0.0 && hot_key_fraction < 1.0);
  MNEMO_EXPECTS(hot_op_fraction > 0.0 && hot_op_fraction <= 1.0);
  MNEMO_EXPECTS(hot_keys_ >= 1);
  // Reachable from a key count a client chose (`--keys 1`), so typed.
  if (hot_keys_ >= n_) {
    throw std::invalid_argument("hotspot distribution over " +
                                std::to_string(n_) +
                                " keys leaves no cold key");
  }
}

std::uint64_t HotspotDistribution::next(util::Rng& rng) {
  if (rng.next_double() < hot_op_fraction_) {
    return rng.uniform(0, hot_keys_ - 1);
  }
  return rng.uniform(hot_keys_, n_ - 1);
}

// ------------------------------------------------------------- sequential

SequentialDistribution::SequentialDistribution(std::uint64_t key_count)
    : n_(key_count) {
  MNEMO_EXPECTS(key_count > 0);
}

std::uint64_t SequentialDistribution::next(util::Rng& /*rng*/) {
  const std::uint64_t k = next_;
  next_ = (next_ + 1) % n_;
  return k;
}

// ---------------------------------------------------------------- factory

std::string_view to_string(DistributionKind kind) {
  switch (kind) {
    case DistributionKind::kUniform:
      return "uniform";
    case DistributionKind::kZipfian:
      return "zipfian";
    case DistributionKind::kScrambledZipfian:
      return "scrambled_zipfian";
    case DistributionKind::kLatest:
      return "latest";
    case DistributionKind::kHotspot:
      return "hotspot";
    case DistributionKind::kSequential:
      return "sequential";
  }
  return "?";
}

std::unique_ptr<KeyDistribution> make_distribution(
    DistributionKind kind, std::uint64_t key_count,
    const DistributionParams& params) {
  switch (kind) {
    case DistributionKind::kUniform:
      return std::make_unique<UniformDistribution>(key_count);
    case DistributionKind::kZipfian:
      return std::make_unique<ZipfianDistribution>(key_count,
                                                   params.zipf_theta);
    case DistributionKind::kScrambledZipfian:
      return std::make_unique<ScrambledZipfianDistribution>(
          key_count, params.zipf_theta);
    case DistributionKind::kLatest:
      return std::make_unique<LatestDistribution>(
          key_count, params.zipf_theta, params.latest_drift);
    case DistributionKind::kHotspot:
      return std::make_unique<HotspotDistribution>(
          key_count, params.hot_key_fraction, params.hot_op_fraction);
    case DistributionKind::kSequential:
      return std::make_unique<SequentialDistribution>(key_count);
  }
  MNEMO_ASSERT(false);
  return nullptr;
}

}  // namespace mnemo::workload
