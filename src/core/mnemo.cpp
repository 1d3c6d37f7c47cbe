#include "core/mnemo.hpp"

#include <fstream>
#include <stdexcept>

#include "core/placement_engine.hpp"
#include "core/render.hpp"
#include "core/session.hpp"
#include "util/assert.hpp"

namespace mnemo::core {

std::string_view to_string(OrderingPolicy policy) {
  switch (policy) {
    case OrderingPolicy::kTouchOrder:
      return "touch_order";
    case OrderingPolicy::kTiered:
      return "tiered";
    case OrderingPolicy::kExternal:
      return "external";
  }
  return "?";
}

Mnemo::Mnemo(MnemoConfig config)
    : config_(std::move(config)), sensitivity_(config_) {}

MnemoReport Mnemo::profile(const workload::Trace& trace) const {
  MNEMO_EXPECTS(config_.ordering != OrderingPolicy::kExternal &&
                "external ordering requires profile_with_order()");
  // The facade is an uncached session: every profiling flow — CLI,
  // examples, benches — funnels through the same staged pipeline.
  SessionConfig sc;
  sc.mnemo = config_;
  Session session(trace, std::move(sc));
  return session.to_report();
}

MnemoReport Mnemo::profile_with_order(
    const workload::Trace& trace,
    std::vector<std::uint64_t> external_order) const {
  MNEMO_EXPECTS(external_order.size() == trace.key_count());
  SessionConfig sc;
  sc.mnemo = config_;
  sc.external_order = std::move(external_order);
  Session session(trace, std::move(sc));
  return session.to_report();
}

RunMeasurement Mnemo::validate(const workload::Trace& trace,
                               const std::vector<std::uint64_t>& order,
                               const EstimatePoint& point) const {
  const auto placement = PlacementEngine::placement_for(order, point);
  return sensitivity_.measure(trace, placement);
}

void MnemoReport::write_csv(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  file << render_curve_csv(curve);
}

}  // namespace mnemo::core
