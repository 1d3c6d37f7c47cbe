#include "util/simd.hpp"

#include "util/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(MNEMO_SIMD_OFF)
#define MNEMO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace mnemo::util::simd {

namespace {

// ---- scalar reference paths --------------------------------------------
// These are the kernels on non-x86 targets and MNEMO_SIMD=OFF builds, and
// the tail handlers of the vector paths. The vector implementations below
// must match them bit for bit on every input.

void mix64_scalar(const std::uint64_t* in, std::uint64_t* out,
                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = mix64(in[i]);
}

void mix64_iota_scalar(std::uint64_t first, std::uint64_t* out,
                       std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = mix64(first + i);
}

double min_scalar(const double* x, std::size_t n) noexcept {
  double m = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (x[i] < m) m = x[i];
  }
  return m;
}

std::uint32_t partition_index_scalar(const double* bounds256,
                                     double x) noexcept {
  std::uint32_t base = 0;
  for (std::uint32_t step = 128; step != 0; step >>= 1) {
    const std::uint32_t probe = base + step;
    if (bounds256[probe] <= x) base = probe;
  }
  return base;
}

void partition_scalar(const double* bounds256, const double* x,
                      std::uint32_t* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = partition_index_scalar(bounds256, x[i]);
  }
}

#if defined(MNEMO_SIMD_X86)

// ---- SSE2 (the x86-64 baseline — no target attribute needed) -----------

/// 64x64 -> low 64 multiply from 32-bit partial products: the high cross
/// terms that SSE2/AVX2 lack do not affect the low half being kept.
inline __m128i mullo64_sse2(__m128i a, __m128i b) noexcept {
  const __m128i lo = _mm_mul_epu32(a, b);
  const __m128i cross =
      _mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(a, 32), b),
                    _mm_mul_epu32(a, _mm_srli_epi64(b, 32)));
  return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

inline __m128i mix64_sse2(__m128i x) noexcept {
  const __m128i c1 =
      _mm_set1_epi64x(static_cast<long long>(0xff51afd7ed558ccdULL));
  const __m128i c2 =
      _mm_set1_epi64x(static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
  x = _mm_xor_si128(x, _mm_srli_epi64(x, 33));
  x = mullo64_sse2(x, c1);
  x = _mm_xor_si128(x, _mm_srli_epi64(x, 33));
  x = mullo64_sse2(x, c2);
  x = _mm_xor_si128(x, _mm_srli_epi64(x, 33));
  return x;
}

void mix64_batch_sse2(const std::uint64_t* in, std::uint64_t* out,
                      std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), mix64_sse2(x));
  }
  mix64_scalar(in + i, out + i, n - i);
}

void mix64_iota_sse2(std::uint64_t first, std::uint64_t* out,
                     std::size_t n) noexcept {
  std::size_t i = 0;
  __m128i v = _mm_set_epi64x(static_cast<long long>(first + 1),
                             static_cast<long long>(first));
  const __m128i two = _mm_set1_epi64x(2);
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), mix64_sse2(v));
    v = _mm_add_epi64(v, two);
  }
  mix64_iota_scalar(first + i, out + i, n - i);
}

double min_sse2(const double* x, std::size_t n) noexcept {
  if (n < 4) return min_scalar(x, n);
  __m128d m = _mm_loadu_pd(x);
  std::size_t i = 2;
  for (; i + 2 <= n; i += 2) m = _mm_min_pd(m, _mm_loadu_pd(x + i));
  alignas(16) double pair[2];
  _mm_store_pd(pair, m);
  double out = pair[0] < pair[1] ? pair[0] : pair[1];
  for (; i < n; ++i) {
    if (x[i] < out) out = x[i];
  }
  return out;
}

// ---- AVX2 (runtime-dispatched; compiled via target attribute) ----------

__attribute__((target("avx2"))) inline __m256i mullo64_avx2(
    __m256i a, __m256i b) noexcept {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i mix64_avx2(
    __m256i x) noexcept {
  const __m256i c1 =
      _mm256_set1_epi64x(static_cast<long long>(0xff51afd7ed558ccdULL));
  const __m256i c2 =
      _mm256_set1_epi64x(static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mullo64_avx2(x, c1);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mullo64_avx2(x, c2);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

__attribute__((target("avx2"))) void mix64_batch_avx2(
    const std::uint64_t* in, std::uint64_t* out, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), mix64_avx2(x));
  }
  mix64_scalar(in + i, out + i, n - i);
}

__attribute__((target("avx2"))) void mix64_iota_avx2(
    std::uint64_t first, std::uint64_t* out, std::size_t n) noexcept {
  std::size_t i = 0;
  __m256i v = _mm256_set_epi64x(static_cast<long long>(first + 3),
                                static_cast<long long>(first + 2),
                                static_cast<long long>(first + 1),
                                static_cast<long long>(first));
  const __m256i four = _mm256_set1_epi64x(4);
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), mix64_avx2(v));
    v = _mm256_add_epi64(v, four);
  }
  mix64_iota_scalar(first + i, out + i, n - i);
}

__attribute__((target("avx2"))) double min_avx2(const double* x,
                                                std::size_t n) noexcept {
  if (n < 8) return min_sse2(x, n);
  __m256d m = _mm256_loadu_pd(x);
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) m = _mm256_min_pd(m, _mm256_loadu_pd(x + i));
  const __m128d folded =
      _mm_min_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd(m, 1));
  alignas(16) double pair[2];
  _mm_store_pd(pair, folded);
  double out = pair[0] < pair[1] ? pair[0] : pair[1];
  for (; i < n; ++i) {
    if (x[i] < out) out = x[i];
  }
  return out;
}

__attribute__((target("avx2"))) void partition_avx2(
    const double* bounds256, const double* x, std::uint32_t* out,
    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    __m256i base = _mm256_setzero_si256();
    for (std::uint32_t step = 128; step != 0; step >>= 1) {
      const __m256i probe =
          _mm256_add_epi64(base, _mm256_set1_epi64x(step));
      const __m256d b = _mm256_i64gather_pd(bounds256, probe, 8);
      // The same `bounds[probe] <= x` predicate as the scalar search; an
      // ordered compare, so NaN inputs keep base at 0 on every step.
      const __m256d le = _mm256_cmp_pd(b, v, _CMP_LE_OQ);
      base = _mm256_blendv_epi8(base, probe, _mm256_castpd_si256(le));
    }
    alignas(32) std::uint64_t idx[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), base);
    out[i + 0] = static_cast<std::uint32_t>(idx[0]);
    out[i + 1] = static_cast<std::uint32_t>(idx[1]);
    out[i + 2] = static_cast<std::uint32_t>(idx[2]);
    out[i + 3] = static_cast<std::uint32_t>(idx[3]);
  }
  partition_scalar(bounds256, x + i, out + i, n - i);
}

Isa detect_isa() noexcept {
  return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kSse2;
}

#else  // !MNEMO_SIMD_X86

Isa detect_isa() noexcept { return Isa::kScalar; }

#endif

}  // namespace

Isa active_isa() noexcept {
  static const Isa isa = detect_isa();
  return isa;
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      return "sse2";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

void mix64_batch(const std::uint64_t* in, std::uint64_t* out,
                 std::size_t n) noexcept {
#if defined(MNEMO_SIMD_X86)
  if (active_isa() == Isa::kAvx2) {
    mix64_batch_avx2(in, out, n);
  } else {
    mix64_batch_sse2(in, out, n);
  }
#else
  mix64_scalar(in, out, n);
#endif
}

void mix64_iota_batch(std::uint64_t first, std::uint64_t* out,
                      std::size_t n) noexcept {
#if defined(MNEMO_SIMD_X86)
  if (active_isa() == Isa::kAvx2) {
    mix64_iota_avx2(first, out, n);
  } else {
    mix64_iota_sse2(first, out, n);
  }
#else
  mix64_iota_scalar(first, out, n);
#endif
}

double min_double(const double* x, std::size_t n) noexcept {
#if defined(MNEMO_SIMD_X86)
  return active_isa() == Isa::kAvx2 ? min_avx2(x, n) : min_sse2(x, n);
#else
  return min_scalar(x, n);
#endif
}

void partition_index_batch(const double* bounds256, const double* x,
                           std::uint32_t* out, std::size_t n) noexcept {
#if defined(MNEMO_SIMD_X86)
  if (active_isa() == Isa::kAvx2) {
    partition_avx2(bounds256, x, out, n);
    return;
  }
#endif
  // The gather-based search needs AVX2; SSE2 and scalar share the plain
  // loop — the predicate sequence is identical either way.
  partition_scalar(bounds256, x, out, n);
}

}  // namespace mnemo::util::simd
