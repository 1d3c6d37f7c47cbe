#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "util/rng.hpp"

namespace mnemo::workload {

/// A request-key distribution over dense key IDs [0, key_count). These are
/// the YCSB request distributions the paper's custom workloads use (Fig 3):
/// uniform, zipfian, scrambled zipfian, latest, hotspot.
class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;

  /// Draw the next requested key ID.
  [[nodiscard]] virtual std::uint64_t next(util::Rng& rng) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::uint64_t key_count() const = 0;
};

/// Every key equally likely.
class UniformDistribution final : public KeyDistribution {
 public:
  explicit UniformDistribution(std::uint64_t key_count);
  std::uint64_t next(util::Rng& rng) override;
  [[nodiscard]] std::string_view name() const override { return "uniform"; }
  [[nodiscard]] std::uint64_t key_count() const override { return n_; }

 private:
  std::uint64_t n_;
};

/// YCSB's ZipfianGenerator (Gray et al. "Quickly generating billion-record
/// synthetic databases" rejection-free algorithm). Rank 0 is the hottest
/// key, so popularity is monotonically decreasing in key ID.
class ZipfianDistribution final : public KeyDistribution {
 public:
  static constexpr double kDefaultTheta = 0.99;

  ZipfianDistribution(std::uint64_t key_count, double theta = kDefaultTheta);
  std::uint64_t next(util::Rng& rng) override;
  [[nodiscard]] std::string_view name() const override { return "zipfian"; }
  [[nodiscard]] std::uint64_t key_count() const override { return n_; }

  [[nodiscard]] double theta() const noexcept { return theta_; }

 private:
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double half_pow_theta_;
};

/// Zipfian popularity scattered across the key space by FNV hashing the
/// zipfian rank (YCSB's ScrambledZipfianGenerator): the hot keys exist but
/// are not contiguous in ID order.
class ScrambledZipfianDistribution final : public KeyDistribution {
 public:
  explicit ScrambledZipfianDistribution(std::uint64_t key_count,
                                        double theta = 0.99);
  std::uint64_t next(util::Rng& rng) override;
  [[nodiscard]] std::string_view name() const override {
    return "scrambled_zipfian";
  }
  [[nodiscard]] std::uint64_t key_count() const override {
    return base_.key_count();
  }

 private:
  ZipfianDistribution base_;
};

/// YCSB's SkewedLatestGenerator: popularity is zipfian in *recency*, so the
/// most recently inserted keys (highest IDs, since IDs are assigned in
/// insertion order) are hottest. Models "News Feed" reads.
///
/// `drift_keys_per_request` moves the recency pivot forward as the run
/// progresses — the News Feed effect: fresh stories keep arriving, so the
/// hot set sweeps through the key space (wrapping around) and no static
/// placement can pin it down. 0 disables drift (classic YCSB behaviour).
class LatestDistribution final : public KeyDistribution {
 public:
  explicit LatestDistribution(std::uint64_t key_count, double theta = 0.99,
                              double drift_keys_per_request = 0.0);
  std::uint64_t next(util::Rng& rng) override;
  [[nodiscard]] std::string_view name() const override { return "latest"; }
  [[nodiscard]] std::uint64_t key_count() const override {
    return base_.key_count();
  }

  [[nodiscard]] double drift() const noexcept { return drift_; }

 private:
  ZipfianDistribution base_;
  double drift_;
  std::uint64_t requests_ = 0;
};

/// YCSB's HotspotIntegerGenerator: `hot_op_fraction` of requests go
/// uniformly to the first `hot_key_fraction` of the key space, the rest
/// uniformly to the cold remainder. Models "Trending". Throws
/// std::invalid_argument when the hot set would cover every key (a
/// one-key space).
class HotspotDistribution final : public KeyDistribution {
 public:
  HotspotDistribution(std::uint64_t key_count, double hot_key_fraction = 0.2,
                      double hot_op_fraction = 0.8);
  std::uint64_t next(util::Rng& rng) override;
  [[nodiscard]] std::string_view name() const override { return "hotspot"; }
  [[nodiscard]] std::uint64_t key_count() const override { return n_; }

  [[nodiscard]] double hot_key_fraction() const noexcept {
    return hot_key_fraction_;
  }
  [[nodiscard]] double hot_op_fraction() const noexcept {
    return hot_op_fraction_;
  }

 private:
  std::uint64_t n_;
  double hot_key_fraction_;
  double hot_op_fraction_;
  std::uint64_t hot_keys_;
};

/// Round-robin over the key space; used by loaders and tests.
class SequentialDistribution final : public KeyDistribution {
 public:
  explicit SequentialDistribution(std::uint64_t key_count);
  std::uint64_t next(util::Rng& rng) override;
  [[nodiscard]] std::string_view name() const override { return "sequential"; }
  [[nodiscard]] std::uint64_t key_count() const override { return n_; }

 private:
  std::uint64_t n_;
  std::uint64_t next_ = 0;
};

/// The distribution menu used by WorkloadSpec.
enum class DistributionKind {
  kUniform,
  kZipfian,
  kScrambledZipfian,
  kLatest,
  kHotspot,
  kSequential,
};

std::string_view to_string(DistributionKind kind);

/// Parameters for the kinds that need them.
struct DistributionParams {
  double zipf_theta = 0.99;
  double hot_key_fraction = 0.2;
  double hot_op_fraction = 0.8;
  /// For kLatest: keys the recency pivot advances per request (News Feed
  /// freshness drift); 0 keeps the classic static YCSB behaviour.
  double latest_drift = 0.0;
};

std::unique_ptr<KeyDistribution> make_distribution(
    DistributionKind kind, std::uint64_t key_count,
    const DistributionParams& params = {});

}  // namespace mnemo::workload
