#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hybridmem/access.hpp"
#include "util/assert.hpp"

namespace mnemo::hybridmem {

/// Static key → node assignment, produced by Mnemo's Placement Engine and
/// consumed by the dual-server router. Keys are dense integer IDs
/// [0, key_count).
class Placement {
 public:
  /// Everything on one node.
  Placement(std::size_t key_count, NodeId everywhere);

  /// First `fast_prefix` entries of `ordered_keys` go to FastMem, the rest
  /// to SlowMem (the paper's "key tiering": a cut point in an ordered key
  /// list). `ordered_keys` must be a permutation of [0, key_count).
  static Placement from_order(std::span<const std::uint64_t> ordered_keys,
                              std::size_t fast_prefix);

  /// Cut an ordered key list by a FastMem byte budget: keys are assigned
  /// to FastMem in order until their cumulative size exceeds the budget.
  static Placement from_order_with_budget(
      std::span<const std::uint64_t> ordered_keys,
      std::span<const std::uint64_t> key_sizes, std::uint64_t fast_budget);

  // Inline: the dual-server router calls this once per replayed request.
  [[nodiscard]] NodeId node_of(std::uint64_t key) const {
    MNEMO_EXPECTS(key < nodes_.size());
    return nodes_[key];
  }
  void set(std::uint64_t key, NodeId node);

  [[nodiscard]] std::size_t key_count() const noexcept {
    return nodes_.size();
  }

  /// Two placements are equal when every key lives on the same node. Used
  /// by the campaign runner (core/campaign) to form placement groups:
  /// cells that share a placement and differ only in repeat.
  friend bool operator==(const Placement&, const Placement&) = default;
  [[nodiscard]] std::size_t fast_keys() const noexcept { return fast_keys_; }
  [[nodiscard]] std::size_t slow_keys() const noexcept {
    return nodes_.size() - fast_keys_;
  }

  /// Bytes each node must hold under this placement for the given sizes.
  [[nodiscard]] std::uint64_t bytes_on(
      NodeId node, std::span<const std::uint64_t> key_sizes) const;

 private:
  std::vector<NodeId> nodes_;
  std::size_t fast_keys_ = 0;
};

}  // namespace mnemo::hybridmem
