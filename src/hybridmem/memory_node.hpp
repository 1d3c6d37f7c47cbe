#pragma once

#include <cstdint>
#include <string>

#include "hybridmem/access.hpp"
#include "util/assert.hpp"

namespace mnemo::hybridmem {

/// Static characteristics of one memory component (one NUMA node in the
/// paper's testbed).
struct NodeSpec {
  std::string name;
  double latency_ns = 0.0;      ///< idle random-access latency
  double bandwidth_gbps = 0.0;  ///< sustained stream bandwidth, GB/s
  std::uint64_t capacity_bytes = 0;

  /// ns to stream `bytes` sequentially at this node's bandwidth.
  [[nodiscard]] double stream_ns(std::uint64_t bytes) const {
    MNEMO_EXPECTS(bandwidth_gbps > 0.0);
    // GB/s == bytes/ns exactly (1e9 bytes per 1e9 ns).
    return static_cast<double>(bytes) / bandwidth_gbps;
  }
};

/// One memory component: it prices raw accesses and accounts capacity as
/// used bytes.
class MemoryNode {
 public:
  explicit MemoryNode(NodeSpec spec);

  [[nodiscard]] const NodeSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t free_bytes() const noexcept {
    return spec_.capacity_bytes - used_;
  }

  /// Reserve `bytes`; returns false (and changes nothing) if it would
  /// exceed capacity.
  [[nodiscard]] bool allocate(std::uint64_t bytes) noexcept {
    if (bytes > free_bytes()) return false;
    used_ += bytes;
    return true;
  }

  /// Release `bytes` previously allocated. Requires bytes <= used_bytes().
  void release(std::uint64_t bytes) noexcept {
    MNEMO_EXPECTS(bytes <= used_);
    used_ -= bytes;
  }

  /// Price a raw access against this node (no LLC involved):
  /// touches serialized latencies plus an exposed bandwidth stream.
  /// `bandwidth_factor` scales the node's effective stream bandwidth
  /// (degradation episodes inject factors < 1); requires factor > 0.
  /// Inline: priced on every LLC miss of the replay hot path.
  [[nodiscard]] double access_ns(const AccessTraits& t, MemOp op,
                                 double bandwidth_factor = 1.0) const {
    MNEMO_EXPECTS(bandwidth_factor > 0.0);
    const double latency =
        spec_.latency_ns * t.latency_touches * t.latency_sensitivity;
    const double exposed = 1.0 - t.bandwidth_overlap;
    double stream = spec_.stream_ns(t.streamed_bytes) * exposed;
    // Healthy platforms always pass factor 1.0: skip the divide (x / 1.0
    // is exactly x, so results are bit-identical either way).
    if (bandwidth_factor != 1.0) stream /= bandwidth_factor;
    double ns = latency + stream;
    if (op == MemOp::kWrite) ns *= t.write_discount;
    return ns;
  }

 private:
  NodeSpec spec_;
  std::uint64_t used_ = 0;
};

}  // namespace mnemo::hybridmem
