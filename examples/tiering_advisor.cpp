// Tiering advisor: the three deployment scenarios of the paper's Fig 2 on
// one workload, side by side.
//
//   (a) stand-alone Mnemo           — first-touch key ordering
//   (b) external tiering + Mnemo    — ordering from a generic
//                                     instrumentation-based profiler
//   (c) MnemoT                      — key-value-store-optimized ordering
//
// Shows the estimate curve of each ordering and where its 10%-SLO sweet
// spot lands, then statically places the winning tiering onto the two
// servers with the Placement Engine.

#include <cstdio>

#include "core/mnemo.hpp"
#include "core/placement_engine.hpp"
#include "core/profilers.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "util/bytes.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

int main() {
  using namespace mnemo;
  const workload::Trace trace =
      workload::Trace::generate(workload::paper_workload("timeline"));
  std::printf("workload: %s — %zu requests over %llu keys (%s)\n\n",
              trace.name().c_str(), trace.requests().size(),
              static_cast<unsigned long long>(trace.key_count()),
              util::format_bytes(trace.dataset_bytes()).c_str());

  core::MnemoConfig config;
  config.repeats = 2;
  const core::Mnemo standalone(config);

  // (a) stand-alone.
  const core::MnemoReport rep_a = standalone.profile(trace);

  // (b) external generic tiering feeding Mnemo (Fig 2b): use the
  // instrumentation-based profiler as the "existing tiering solution".
  core::SensitivityConfig sens_cfg;
  sens_cfg.repeats = config.repeats;
  const core::SensitivityEngine engine(sens_cfg);
  const core::ProfilerOutput external =
      core::run_instrumented_profiler(trace, engine);
  const core::MnemoReport rep_b =
      standalone.profile_with_order(trace, external.order);

  // (c) MnemoT: the same facade with the tiered ordering.
  core::MnemoConfig tiered_config = config;
  tiered_config.ordering = core::OrderingPolicy::kTiered;
  const core::Mnemo mnemot(tiered_config);
  const core::MnemoReport rep_c = mnemot.profile(trace);

  util::TablePrinter table({"scenario", "ordering", "SLO cost R(p)",
                            "savings", "FastMem keys", "FastMem bytes"});
  auto add = [&](const char* scenario, const core::MnemoReport& rep) {
    if (!rep.slo_choice) {
      table.add_row({scenario, std::string(to_string(rep.ordering)), "-",
                     "-", "-", "-"});
      return;
    }
    const core::SloChoice& c = *rep.slo_choice;
    table.add_row({scenario, std::string(to_string(rep.ordering)),
                   util::TablePrinter::num(c.cost_factor, 3),
                   util::TablePrinter::pct(c.savings_vs_fast, 1),
                   std::to_string(c.point.fast_keys),
                   util::format_bytes(c.point.fast_bytes)});
  };
  add("(a) stand-alone Mnemo", rep_a);
  add("(b) external tiering + Mnemo", rep_b);
  add("(c) MnemoT", rep_c);
  table.print();

  // Apply the winning tiering with the Placement Engine — the optional
  // final step where Mnemo populates FastServer and SlowServer itself.
  const core::MnemoReport& best = rep_c;
  const auto placement =
      core::PlacementEngine::placement_for(best.order,
                                           best.slo_choice->point);
  hybridmem::HybridMemory memory(hybridmem::paper_testbed_with_capacity(
      trace.dataset_bytes() * 2));
  kvstore::StoreConfig store_cfg;
  kvstore::DualServer servers(memory, config.store, store_cfg);
  core::PlacementEngine::populate(servers, trace, placement);
  std::printf(
      "\nplaced dataset for scenario (c): FastServer holds %zu records "
      "(%s), SlowServer %zu records (%s)\n",
      servers.fast().record_count(),
      util::format_bytes(memory.node(hybridmem::NodeId::kFast).used_bytes())
          .c_str(),
      servers.slow().record_count(),
      util::format_bytes(memory.node(hybridmem::NodeId::kSlow).used_bytes())
          .c_str());
  return 0;
}
