#pragma once

#include <cstddef>
#include <cstdint>

namespace mnemo::util::simd {

/// Batch kernels for the replay hot paths (DESIGN.md §14). Every kernel
/// is exact — integer ops and IEEE compares only, never a reassociated
/// float reduction — so using them cannot move a
/// result by even one ULP relative to the scalar loop they replace. The
/// implementation is picked once per process: AVX2 when the CPU has it,
/// SSE2 on any other x86-64, plain scalar elsewhere or when the build was
/// configured with -DMNEMO_SIMD=OFF (the sanitizer gate's second leg).
enum class Isa : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// The implementation the kernels below dispatch to in this process.
[[nodiscard]] Isa active_isa() noexcept;
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// out[i] = util::mix64(in[i]). Bit-exact: the same xor-shift-multiply
/// avalanche, four keys per AVX2 vector (64x64 low multiply synthesized
/// from 32-bit partial products).
void mix64_batch(const std::uint64_t* in, std::uint64_t* out,
                 std::size_t n) noexcept;

/// out[i] = util::mix64(first + i) — the key-hash table build, without
/// materializing the iota input.
void mix64_iota_batch(std::uint64_t first, std::uint64_t* out,
                      std::size_t n) noexcept;

/// Exact minimum of x[0..n). Requires n >= 1, NaN-free input, and no
/// negative zeros (IEEE min is ambiguous on ±0 ties) — both hold for
/// service-time streams, which are finite and non-negative with +0 only.
/// Value-identical to *std::min_element under those preconditions.
[[nodiscard]] double min_double(const double* x, std::size_t n) noexcept;

/// For each x[j]: the largest index i in [0, 256) with bounds256[i] <=
/// x[j], via a branchless 8-step binary search (AVX2: gathered probes,
/// four values per vector). `bounds256` must be ascending with
/// bounds256[0] == -inf; entries past the live range are padded with
/// +inf. Compares only — no arithmetic touches x — so the result is the
/// exact partition index for every representable double. NaN inputs map
/// to index 0.
void partition_index_batch(const double* bounds256, const double* x,
                           std::uint32_t* out, std::size_t n) noexcept;

}  // namespace mnemo::util::simd
