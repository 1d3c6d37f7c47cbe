#pragma once

#include <cstdint>
#include <vector>

#include "core/estimate_engine.hpp"
#include "hybridmem/placement.hpp"
#include "kvstore/dual_server.hpp"
#include "workload/trace.hpp"

namespace mnemo::core {

/// The paper's Placement Engine: turns a selected row of the estimate
/// curve into a static key placement and (optionally) populates the
/// FastServer/SlowServer pair with the actual dataset prior to execution.
/// Mnemo provides static allocations only — no dynamic migration.
class PlacementEngine {
 public:
  /// Placement realizing `point`: the first `point.fast_keys` keys of
  /// `order` go to FastMem.
  [[nodiscard]] static hybridmem::Placement placement_for(
      const std::vector<std::uint64_t>& order, const EstimatePoint& point);

  /// Statically place the dataset onto the two servers (the optional last
  /// step the user may also perform manually).
  static void populate(kvstore::DualServer& servers,
                       const workload::Trace& trace,
                       const hybridmem::Placement& placement);
};

}  // namespace mnemo::core
