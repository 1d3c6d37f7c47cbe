#include "kvstore/record.hpp"

#include "util/rng.hpp"

namespace mnemo::kvstore {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

std::uint64_t checksum_bytes(const std::vector<std::byte>& bytes) {
  std::uint64_t h = kFnvOffset;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
  return h;
}

Record make_record(std::uint64_t key, std::uint64_t size, PayloadMode mode) {
  return make_record(key, size, mode, util::record_digest(key, size));
}

Record make_record(std::uint64_t /*key*/, std::uint64_t size,
                   PayloadMode mode, std::uint64_t digest) {
  // Contract (not re-checked here — recomputing the digest per call is
  // exactly the work the caller hoisted): digest == record_digest(key,
  // size). The golden bit-identity suite pins the consequence.
  Record r;
  r.size = size;
  if (mode == PayloadMode::kSynthetic) {
    // Cheap stand-in checksum; integrity in synthetic mode is validated by
    // size+identity, not content. Avoids the O(size) walk per op.
    r.checksum = digest;
    return r;
  }
  r.bytes.resize(size);
  std::uint64_t state = digest;
  for (std::uint64_t i = 0; i < size; ++i) {
    if (i % 8 == 0) state = util::mix64(state + 1);
    r.bytes[i] = static_cast<std::byte>((state >> ((i % 8) * 8)) & 0xff);
  }
  r.checksum = checksum_bytes(r.bytes);
  return r;
}

}  // namespace mnemo::kvstore
