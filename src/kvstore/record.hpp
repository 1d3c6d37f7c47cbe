#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mnemo::kvstore {

/// Whether stores keep actual payload bytes or only their size + checksum.
/// All performance numbers come from the simulated clock, so both modes
/// produce identical results; kSynthetic avoids multi-GB memcpy wall-clock
/// during large sweeps (see DESIGN.md "Payloads").
enum class PayloadMode : std::uint8_t { kStored = 0, kSynthetic = 1 };

/// A stored value. In kStored mode `bytes` holds the payload; in kSynthetic
/// mode it is empty and only `size`/`checksum` are kept.
struct Record {
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  std::vector<std::byte> bytes;

  [[nodiscard]] bool stored() const noexcept { return !bytes.empty(); }
};

/// Deterministically generate the canonical payload for (key, size): a
/// repeatable byte pattern whose checksum get() can verify end-to-end.
Record make_record(std::uint64_t key, std::uint64_t size, PayloadMode mode);

/// make_record with the util::record_digest(key, size) value already in
/// hand — the campaign-invariant generator seed workload::CompiledTrace
/// precomputes once per key. Produces bit-identical records to the
/// three-argument form; passing a digest that is not record_digest(key,
/// size) is a contract violation.
Record make_record(std::uint64_t key, std::uint64_t size, PayloadMode mode,
                   std::uint64_t digest);

/// FNV-1a over a byte buffer.
std::uint64_t checksum_bytes(const std::vector<std::byte>& bytes);

}  // namespace mnemo::kvstore
