#pragma once

#include <cstdint>
#include <string_view>

namespace mnemo::hybridmem {

/// The two memory components of the hybrid system, named as in the paper.
enum class NodeId : std::uint8_t { kFast = 0, kSlow = 1 };

inline constexpr std::string_view to_string(NodeId n) {
  return n == NodeId::kFast ? "FastMem" : "SlowMem";
}

/// Kind of memory traffic an access generates.
enum class MemOp : std::uint8_t { kRead = 0, kWrite = 1 };

/// How a key-value store touches memory for one logical operation. The
/// store layer describes *what* it does; the emulator prices it against the
/// node the data lives on. This split keeps store architecture (tree
/// descent, slab lookup, journal append) independent of memory technology.
struct AccessTraits {
  /// Dependent cache-missing touches (pointer chases): each costs one full
  /// node latency, serialized.
  std::uint32_t latency_touches = 1;
  /// Sequentially streamed payload bytes, priced against node bandwidth.
  std::uint64_t streamed_bytes = 0;
  /// Multiplier on the latency component; >1 models latency-bound engines
  /// that cannot hide misses (e.g. B-tree descent), <1 models speculative
  /// or batched designs.
  double latency_sensitivity = 1.0;
  /// Fraction of the stream time hidden behind CPU work / prefetch
  /// (0 = fully exposed, 0.9 = 90 % overlapped).
  double bandwidth_overlap = 0.0;
  /// Fraction of the nominal cost actually paid by writes thanks to
  /// write-combining buffers (1.0 = writes pay full price).
  double write_discount = 1.0;
};

/// Fault absorbed by one access (ordered by severity so a worst-wins
/// reduction over several accesses is a plain max).
enum class FaultKind : std::uint8_t { kNone = 0, kTransient = 1, kPoisoned = 2 };

inline constexpr std::string_view to_string(FaultKind f) {
  switch (f) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kPoisoned:
      return "poisoned";
  }
  return "?";
}

/// Outcome of pricing one access.
struct AccessResult {
  double ns = 0.0;  ///< simulated service time of the memory part
  FaultKind fault = FaultKind::kNone;  ///< injected fault, if any
  bool failed = false;  ///< retries exhausted; data not delivered
};

}  // namespace mnemo::hybridmem
