// util::simd batch kernels must be drop-in replacements for their scalar
// loops: same bits out, on every ISA tier (AVX2, SSE2, scalar fallback,
// and the MNEMO_SIMD=OFF build). Sizes deliberately straddle the vector
// widths (4 lanes of u64 for AVX2, 2 for SSE2) so head/tail remainder
// handling is exercised on every path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mnemo::util::simd {
namespace {

TEST(Simd, ActiveIsaIsNamedAndStable) {
  const Isa isa = active_isa();
  EXPECT_EQ(isa, active_isa());  // resolved once, then constant
  const char* name = isa_name(isa);
  ASSERT_NE(name, nullptr);
  EXPECT_GT(std::char_traits<char>::length(name), 0u);
#if defined(MNEMO_SIMD_OFF)
  EXPECT_EQ(isa, Isa::kScalar);
#endif
}

TEST(Simd, Mix64BatchMatchesScalarMix64) {
  util::Rng rng(41);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{15}, std::size_t{16}, std::size_t{33}, std::size_t{67}}) {
    std::vector<std::uint64_t> in(n);
    for (auto& v : in) v = rng.next_u64();
    if (n > 2) {
      in[0] = 0;  // edge inputs ride along
      in[1] = std::numeric_limits<std::uint64_t>::max();
    }
    std::vector<std::uint64_t> out(n, 0xdead);
    mix64_batch(in.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], util::mix64(in[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Simd, Mix64IotaBatchMatchesScalarSequence) {
  for (const std::uint64_t first :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{12345},
        std::numeric_limits<std::uint64_t>::max() - 5}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{4},
                                std::size_t{9}, std::size_t{65}}) {
      std::vector<std::uint64_t> out(n, 0xdead);
      mix64_iota_batch(first, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], util::mix64(first + i))
            << "first=" << first << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Simd, MinDoubleMatchesMinElement) {
  util::Rng rng(42);
  for (std::size_t n = 1; n <= 70; ++n) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.gaussian() * 1e6;
    const double expected = *std::min_element(x.begin(), x.end());
    ASSERT_EQ(min_double(x.data(), n), expected) << "n=" << n;
  }
  // The minimum can live in the vector body or the scalar tail.
  std::vector<double> tail_min(13, 5.0);
  tail_min.back() = -3.0;
  EXPECT_EQ(min_double(tail_min.data(), tail_min.size()), -3.0);
  std::vector<double> head_min(13, 5.0);
  head_min.front() = -3.0;
  EXPECT_EQ(min_double(head_min.data(), head_min.size()), -3.0);
}

TEST(Simd, PartitionIndexBatchMatchesUpperBound) {
  // Same shape as stats::LogHistogram::bucket_bounds(): ascending, -inf
  // sentinel at 0, +inf padding past the live entries.
  std::vector<double> bounds(256, std::numeric_limits<double>::infinity());
  bounds[0] = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < 180; ++i) {
    bounds[i] = 10.0 * std::pow(10.0, static_cast<double>(i - 1) / 20.0);
  }

  const auto reference = [&](double v) -> std::uint32_t {
    if (std::isnan(v)) return 0;
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), v);
    return static_cast<std::uint32_t>((it - bounds.begin()) - 1);
  };

  util::Rng rng(44);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{8}, std::size_t{17},
                              std::size_t{64}}) {
    std::vector<double> x(n);
    for (auto& v : x) {
      // Log-uniform across and beyond the histogram range, exercising
      // both saturation ends.
      v = std::pow(10.0, rng.next_double() * 14.0 - 2.0);
    }
    if (n >= 4) {
      x[0] = 0.0;                                       // below range
      x[1] = std::numeric_limits<double>::infinity();   // above range
      x[2] = bounds[1];                                 // exact boundary
      x[3] = std::numeric_limits<double>::quiet_NaN();  // NaN -> 0
    }
    std::vector<std::uint32_t> out(n, 0xffffffffu);
    partition_index_batch(bounds.data(), x.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], reference(x[i])) << "n=" << n << " i=" << i;
    }
  }

  // Every exact boundary value must land in its own partition, and the
  // value one ulp below must land in the previous one.
  std::vector<double> probes;
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 1; i < 180; ++i) {
    probes.push_back(bounds[i]);
    expected.push_back(static_cast<std::uint32_t>(i));
    probes.push_back(std::nextafter(bounds[i], 0.0));
    expected.push_back(static_cast<std::uint32_t>(i - 1));
  }
  std::vector<std::uint32_t> got(probes.size());
  partition_index_batch(bounds.data(), probes.data(), got.data(),
                        probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "probe " << probes[i];
  }
}

}  // namespace
}  // namespace mnemo::util::simd
