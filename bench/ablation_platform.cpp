// Platform-parameter sensitivity: how Mnemo's advice moves as the slow
// tier's technology and price change. The paper fixes Table I's throttled
// DRAM (B 0.12x, L 3.62x) and p = 0.2, and notes that real NVDIMM price
// and speed were unknown at publication; this bench sweeps both.
//
//   - technology sweep: SlowMem latency multiple L and bandwidth factor B
//     (including an Optane-DC-like projection: L ~ 3x, B ~ 0.35x)
//   - price sweep: p in [0.1, 0.5]
// reporting the Trending sweet spot (Redis-like store, 10% SLO).

#include <cstdio>

#include "core/mnemo.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

namespace {

using namespace mnemo;

core::SloChoice advise(const hybridmem::EmulationProfile& platform,
                       double price_factor, const workload::Trace& trace) {
  core::MnemoConfig cfg;
  cfg.platform = platform;
  cfg.price_factor = price_factor;
  cfg.repeats = 1;
  cfg.ordering = core::OrderingPolicy::kTiered;
  const core::Mnemo mnemo(cfg);
  const auto report = mnemo.profile(trace);
  MNEMO_EXPECTS(report.slo_choice.has_value());
  return *report.slo_choice;
}

}  // namespace

int main() {
  std::printf(
      "== Platform sensitivity of the Trending sweet spot (Redis-like, "
      "10%% SLO) ==\n\n");

  workload::WorkloadSpec spec = workload::paper_workload("trending");
  spec.key_count = 2'000;
  spec.request_count = 20'000;
  const workload::Trace trace = workload::Trace::generate(spec);
  const auto base = hybridmem::paper_testbed();

  // ---- technology sweep ------------------------------------------------
  struct Tech {
    const char* label;
    double latency_mult;   // vs FastMem
    double bandwidth_frac;  // vs FastMem
  };
  const Tech techs[] = {
      {"paper testbed (L3.62 B0.12)", 3.62, 0.12},
      {"Optane-DC projection (L3.0 B0.35)", 3.0, 0.35},
      {"aggressive NVM (L2.0 B0.5)", 2.0, 0.5},
      {"pessimistic NVM (L6.0 B0.08)", 6.0, 0.08},
      {"near-DRAM CXL (L1.5 B0.8)", 1.5, 0.8},
  };
  util::TablePrinter tech_table({"slow tier", "SLO cost R(p)", "savings",
                                 "FastMem keys"});
  for (const Tech& t : techs) {
    hybridmem::EmulationProfile platform = base;
    platform.slow.latency_ns = base.fast.latency_ns * t.latency_mult;
    platform.slow.bandwidth_gbps = base.fast.bandwidth_gbps * t.bandwidth_frac;
    const core::SloChoice c = advise(platform, 0.2, trace);
    tech_table.add_row({t.label, util::TablePrinter::num(c.cost_factor, 3),
                        util::TablePrinter::pct(c.savings_vs_fast, 1),
                        std::to_string(c.point.fast_keys)});
  }
  std::printf("-- slow-tier technology sweep (p = 0.2) --\n");
  tech_table.print();

  // ---- price sweep -----------------------------------------------------
  util::TablePrinter price_table({"p (SlowMem price factor)",
                                  "SLO cost R(p)", "savings",
                                  "FastMem keys"});
  for (const double p : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    const core::SloChoice c = advise(base, p, trace);
    price_table.add_row({util::TablePrinter::num(p, 2),
                         util::TablePrinter::num(c.cost_factor, 3),
                         util::TablePrinter::pct(c.savings_vs_fast, 1),
                         std::to_string(c.point.fast_keys)});
  }
  std::printf("\n-- price sweep (paper testbed timings) --\n");
  price_table.print();

  std::printf(
      "\nreading: faster slow tiers let the SLO tolerate more SlowMem "
      "(fewer FastMem keys), and the cost floor p bounds the savings; the "
      "FastMem key count is driven by technology, the bill by price.\n");
  return 0;
}
