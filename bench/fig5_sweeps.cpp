// Figure 5: application performance of the Redis-like store for
// incremental FastMem:SlowMem capacity ratio, with Mnemo's estimate line
// against measured points.
//   (a) key distribution  — trending / news feed / timeline
//   (b) read:write ratio  — timeline (100:0) vs edit thumbnail (50:50)
//   (c) record size       — timeline at 100 KB / 10 KB / 1 KB records
//
// Shape expectations from the paper: throughput tracks the key-access
// CDF; hot-key workloads saturate early (cheap sweet spots); write-heavy
// and small-record workloads are flatter.

#include <cstdio>

#include "bench_common.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

namespace {

using namespace mnemo;

void run_panel(const char* title, const std::vector<workload::WorkloadSpec>& specs,
               const core::MnemoConfig& config, util::csv::Writer& csv) {
  std::printf("\n---- %s ----\n", title);
  util::AsciiPlot plot(title, "memory cost R(p)", "throughput (ops/s)", 72,
                       20);
  util::TablePrinter table({"workload", "cost", "est ops/s", "meas ops/s",
                            "err %", "vs FastMem-only"});
  char markers[] = {'*', 'o', '+', 'x', '#'};
  std::size_t mi = 0;

  for (const auto& spec : specs) {
    const workload::Trace trace = workload::Trace::generate(spec);
    const bench::SweepResult sweep =
        bench::run_sweep(trace, kvstore::StoreKind::kVermilion, config);

    // Estimate line (densely sampled curve).
    util::PlotSeries est;
    est.name = spec.name + " (estimate)";
    est.marker = markers[mi % sizeof markers];
    bench::sample_curve(sweep.report.curve, 60, &est.x, &est.y);
    plot.add(std::move(est));

    const double fast_thr = sweep.report.baselines.fast.throughput_ops;
    for (const bench::SweepPoint& p : sweep.points) {
      table.add_row(
          {spec.name, util::TablePrinter::num(p.cost_factor, 3),
           util::TablePrinter::num(p.est_throughput, 0),
           util::TablePrinter::num(p.meas_throughput, 0),
           util::TablePrinter::num(p.throughput_error_pct, 3),
           util::TablePrinter::pct(p.meas_throughput / fast_thr - 1.0, 1)});
      csv.field(title).field(spec.name).field(p.cost_factor, 4)
          .field(p.est_throughput, 8)
          .field(p.meas_throughput, 8)
          .field(p.throughput_error_pct, 4);
      csv.end_row();
    }
    ++mi;
  }
  plot.print();
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  core::MnemoConfig config;
  config.repeats = 2;
  // Optional: ./fig5_sweeps [threads]  (0 = hardware concurrency).
  config.threads = bench::threads_arg(argc, argv);

  std::printf(
      "== Fig 5: Redis-like throughput vs memory cost, estimate vs "
      "measured ==\n");

  util::csv::Writer csv("fig5_sweeps.csv");
  csv.row({"panel", "workload", "cost_factor", "est_throughput",
           "meas_throughput", "error_pct"});

  run_panel("Fig 5a: key distribution", workload::distribution_sweep(),
            config, csv);
  run_panel("Fig 5b: read-write ratio", workload::ratio_sweep(), config,
            csv);
  run_panel("Fig 5c: record size", workload::record_size_sweep(), config,
            csv);

  std::printf(
      "\npaper: (a) throughput follows the key-access distribution — "
      "trending reaches within 10%% of FastMem-only at ~36%% of its cost; "
      "(b) the write-heavy edit-thumbnail curve is flatter than the "
      "read-only timeline; (c) big records bend the curve far more than "
      "small ones.\nwrote fig5_sweeps.csv\n");
  bench::print_campaign_totals();
  return 0;
}
