// Table IV: comparison of the profiling overheads between MnemoT and
// existing tiering solutions.
//
// Each strategy is actually implemented and wall-clock timed on the
// Trending workload at paper scale:
//   - MnemoT: descriptor-only weights, two executed baselines
//   - instrumentation (X-Mem / Unimem style): per-access event stream
//   - one baseline + learned model (Tahoe style): training-data
//     collection plus inference of the FastMem baseline
// These are the only wall-clock numbers in the repository — they time the
// profilers themselves, not the simulated workload.

#include <cstdio>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/profilers.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

int main(int argc, char** argv) {
  using namespace mnemo;
  core::SensitivityConfig cfg;
  cfg.repeats = 1;
  // Optional: ./table4_overhead [threads]  (0 = hardware concurrency).
  cfg.threads = bench::threads_arg(argc, argv);
  std::printf("== Table IV: profiling overhead comparison ==\n\n");

  const workload::Trace trace =
      workload::Trace::generate(workload::paper_workload("trending"));
  const core::SensitivityEngine engine(cfg);

  const auto mnemot = core::run_mnemot_profiler(trace, engine);
  const auto instr = core::run_instrumented_profiler(trace, engine);
  const auto ml = core::run_ml_baseline_profiler(trace, engine);

  util::TablePrinter table({"strategy", "input prep (ms)", "baselines (ms)",
                            "tiering (ms)", "total (ms)", "fast baseline"});
  auto add = [&](const core::ProfilerOutput& out) {
    char inferred[64];
    if (out.fast_baseline_inferred) {
      std::snprintf(inferred, sizeof inferred, "inferred (%.1f%% err)",
                    out.inferred_fast_runtime_error_pct);
    } else {
      std::snprintf(inferred, sizeof inferred, "measured");
    }
    table.add_row({out.strategy,
                   util::TablePrinter::num(out.costs.input_prep_s * 1e3, 3),
                   util::TablePrinter::num(out.costs.baselines_s * 1e3, 3),
                   util::TablePrinter::num(out.costs.tiering_s * 1e3, 3),
                   util::TablePrinter::num(out.costs.total_s() * 1e3, 3),
                   inferred});
  };
  add(mnemot);
  add(instr);
  add(ml);
  table.print();

  std::printf("\ntiering-stage overhead vs MnemoT: instrumentation %.1fx, "
              "ML-baseline %.1fx\n",
              instr.costs.tiering_s / std::max(1e-9, mnemot.costs.tiering_s),
              ml.costs.tiering_s / std::max(1e-9, mnemot.costs.tiering_s));
  std::printf("baseline-stage overhead vs MnemoT: ML-baseline %.1fx "
              "(training-data collection dominates)\n",
              ml.costs.baselines_s /
                  std::max(1e-9, mnemot.costs.baselines_s));

  std::printf(
      "\nqualitative columns of the paper's Table IV:\n"
      "  input preparation: MnemoT needs only the workload descriptor "
      "(keys + sizes); others instrument the server with a custom "
      "allocation API.\n"
      "  performance baselines: MnemoT executes both extremes as-is; "
      "X-Mem runs microbenchmarks; Tahoe executes one baseline and infers "
      "the other from a trained model.\n"
      "  tiering: MnemoT computes accesses/size per key from the "
      "descriptor; others aggregate low-level access monitoring (Pin "
      "instrumentation can add up to 40x).\n");
  std::printf("\n%s",
              core::campaign_totals().render("campaign totals").c_str());
  return 0;
}
