#include "core/placement_engine.hpp"

#include "util/assert.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

hybridmem::Placement PlacementEngine::placement_for(
    const std::vector<std::uint64_t>& order, const EstimatePoint& point) {
  return hybridmem::Placement::from_order(order, point.fast_keys);
}

void PlacementEngine::populate(kvstore::DualServer& servers,
                               const workload::Trace& trace,
                               const hybridmem::Placement& placement) {
  const util::Status loaded =
      servers.populate(workload::CompiledTrace(trace), placement);
  MNEMO_ASSERT(loaded.ok() && "engine-produced placements must fit");
}

}  // namespace mnemo::core
