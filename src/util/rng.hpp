#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace mnemo::util {

/// SplitMix64 — used to seed the main generator and to derive independent
/// per-object streams from a single user-supplied seed. Passes BigCrush when
/// used as a standalone generator; here it is the seed expander recommended
/// by the xoshiro authors.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the repository's deterministic pseudo-random generator.
/// All stochastic components (key distributions, jitter, downsampling) take
/// an explicit seed so every experiment is exactly reproducible. Satisfies
/// the std UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x6d6e656d6fULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
    MNEMO_EXPECTS(lo <= hi);
    const std::uint64_t range = hi - lo + 1;
    if (range == 0) return next_u64();  // full 64-bit range
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * range;
    auto low = static_cast<std::uint64_t>(m);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * range;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64) + lo;
  }

  /// Standard normal via Marsaglia polar method.
  double gaussian() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * next_double() - 1.0;
      v = 2.0 * next_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
  }

  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate) noexcept {
    MNEMO_EXPECTS(rate > 0.0);
    return -std::log1p(-next_double()) / rate;
  }

  /// Derive an independent child stream (e.g. one per worker / per key).
  Rng fork(std::uint64_t stream_id) noexcept {
    SplitMix64 sm(state_[0] ^ (stream_id * 0x9e3779b97f4a7c15ULL));
    Rng child(sm.next());
    return child;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// Stateless 64-bit mix usable as a hash (FNV-free, avalanching). Used by
/// the scrambled-zipfian generator and the deterministic jitter model.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a 64-bit hash of an integer key, as used by YCSB's scrambled
/// zipfian ("FNVhash64").
inline std::uint64_t fnv1a64(std::uint64_t v) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace mnemo::util
