// Figure 8: evaluation of Mnemo's estimate accuracy across key-value
// stores.
//   (a) boxplots of throughput-estimate error per store  (paper: ~0.07%
//       median)
//   (b) store comparison on the Trending workload (DynamoDB-like most
//       sensitive, Memcached-like flat)
//   (c) average-latency estimate accuracy
//   (d/e) p95 / p99 tail latencies (reported, not estimated)
//   (f) MnemoT's estimate stays accurate under the tiered key ordering

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/tail_estimator.hpp"
#include "core/tiering.hpp"
#include "stats/summary.hpp"
#include "util/ascii_plot.hpp"
#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

namespace {

using namespace mnemo;

void print_boxplot_row(util::TablePrinter& table, const char* label,
                       std::vector<double> errors) {
  const auto b = stats::boxplot(errors);
  table.add_row({label, util::TablePrinter::num(b.whisker_lo, 3),
                 util::TablePrinter::num(b.q1, 3),
                 util::TablePrinter::num(b.median, 3),
                 util::TablePrinter::num(b.q3, 3),
                 util::TablePrinter::num(b.whisker_hi, 3),
                 std::to_string(b.n), std::to_string(b.outliers)});
}

}  // namespace

int main(int argc, char** argv) {
  core::MnemoConfig config;
  config.repeats = 2;
  // Optional: ./fig8_accuracy [threads]  (0 = hardware concurrency).
  config.threads = bench::threads_arg(argc, argv);
  std::printf("== Fig 8: estimate accuracy across key-value stores ==\n");

  const auto suite = workload::paper_suite();
  util::csv::Writer csv("fig8_accuracy.csv");
  csv.row({"store", "workload", "cost_factor", "thr_err_pct", "lat_err_pct",
           "meas_p95_us", "meas_p99_us"});

  // Collect sweeps for every store x workload.
  struct Cell {
    kvstore::StoreKind store;
    bench::SweepResult sweep;
  };
  std::vector<Cell> cells;
  for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
    for (const auto& spec : suite) {
      const workload::Trace trace = workload::Trace::generate(spec);
      cells.push_back({store, bench::run_sweep(trace, store, config)});
    }
  }

  // ---- (a) throughput error boxplots + (c) latency error ----
  util::TablePrinter boxes({"store", "whisk-lo", "q1", "median", "q3",
                            "whisk-hi", "n", "outliers"});
  util::TablePrinter lat_boxes({"store", "whisk-lo", "q1", "median", "q3",
                                "whisk-hi", "n", "outliers"});
  std::vector<double> all_errors;
  for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
    std::vector<double> thr_err;
    std::vector<double> lat_err;
    for (const Cell& cell : cells) {
      if (cell.store != store) continue;
      for (const bench::SweepPoint& p : cell.sweep.points) {
        thr_err.push_back(p.throughput_error_pct);
        lat_err.push_back(p.latency_error_pct);
        all_errors.push_back(std::fabs(p.throughput_error_pct));
        csv.field(std::string(kvstore::to_string(store)))
            .field(cell.sweep.workload)
            .field(p.cost_factor, 4)
            .field(p.throughput_error_pct, 5)
            .field(p.latency_error_pct, 5)
            .field(p.meas_p95_ns / 1e3, 6)
            .field(p.meas_p99_ns / 1e3, 6);
        csv.end_row();
      }
    }
    print_boxplot_row(boxes, bench::store_label(store), thr_err);
    print_boxplot_row(lat_boxes, bench::store_label(store), lat_err);
  }
  std::printf("\n-- Fig 8a: throughput estimate error %% ((r-e)/r*100) --\n");
  boxes.print();
  std::printf("\noverall |error| median: %.3f%% (paper: 0.07%% median)\n",
              stats::median(all_errors));
  std::printf("\n-- Fig 8c: average-latency estimate error %% --\n");
  lat_boxes.print();

  // ---- (b) store comparison on Trending ----
  std::printf("\n-- Fig 8b: store comparison, Trending workload --\n");
  util::AsciiPlot cmp("Fig 8b: trending across stores", "memory cost R(p)",
                      "throughput (ops/s)", 72, 20);
  util::TablePrinter sens({"store", "SlowMem-only ops/s", "FastMem-only ops/s",
                           "sensitivity"});
  const char cmp_markers[] = {'r', 'm', 'd'};
  std::size_t mi = 0;
  for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
    for (const Cell& cell : cells) {
      if (cell.store != store || cell.sweep.workload != "trending") continue;
      util::PlotSeries series;
      series.name = bench::store_label(store);
      series.marker = cmp_markers[mi];
      for (const bench::SweepPoint& p : cell.sweep.points) {
        series.x.push_back(p.cost_factor);
        series.y.push_back(p.meas_throughput);
      }
      cmp.add(std::move(series));
      const auto& b = cell.sweep.report.baselines;
      sens.add_row({bench::store_label(store),
                    util::TablePrinter::num(b.slow.throughput_ops, 0),
                    util::TablePrinter::num(b.fast.throughput_ops, 0),
                    util::TablePrinter::pct(b.sensitivity(), 1)});
    }
    ++mi;
  }
  cmp.print();
  sens.print();

  // ---- (d/e) tail latencies ----
  std::printf(
      "\n-- Fig 8d/8e: tail latencies (paper: reported only; est columns "
      "are this repo's mixture-model extension) --\n");
  util::TablePrinter tails({"store", "workload", "cost", "avg (us)",
                            "p95 (us)", "est p95", "p99 (us)", "est p99"});
  for (const Cell& cell : cells) {
    if (cell.sweep.workload != "trending") continue;
    for (const bench::SweepPoint& p : cell.sweep.points) {
      if (p.fast_keys != 0 &&
          p.fast_keys != cell.sweep.report.pattern.key_count() &&
          p.cost_factor > 0.45 && p.cost_factor < 0.75) {
        const core::TailEstimate est = core::TailEstimator::estimate(
            cell.sweep.report.pattern, cell.sweep.report.order, p.fast_keys,
            cell.sweep.report.baselines);
        tails.add_row({bench::store_label(cell.store), cell.sweep.workload,
                       util::TablePrinter::num(p.cost_factor, 2),
                       util::TablePrinter::num(p.meas_avg_latency_ns / 1e3, 1),
                       util::TablePrinter::num(p.meas_p95_ns / 1e3, 1),
                       util::TablePrinter::num(est.p95_ns / 1e3, 1),
                       util::TablePrinter::num(p.meas_p99_ns / 1e3, 1),
                       util::TablePrinter::num(est.p99_ns / 1e3, 1)});
      }
    }
  }
  tails.print();
  std::printf(
      "note: p99 >> avg (deterministic tail-spike model); the paper's "
      "simple analytical model deliberately does not estimate tails. The "
      "est columns use the baseline-mixture extension "
      "(core/tail_estimator).\n");

  // ---- (f) MnemoT ordering accuracy ----
  std::printf("\n-- Fig 8f: estimate accuracy under MnemoT tiered ordering --\n");
  {
    const workload::Trace trace =
        workload::Trace::generate(workload::paper_workload("timeline"));
    core::MnemoConfig tiered_cfg = config;
    tiered_cfg.ordering = core::OrderingPolicy::kTiered;
    const bench::SweepResult tiered = bench::run_sweep(
        trace, kvstore::StoreKind::kVermilion, tiered_cfg);
    util::TablePrinter table({"ordering", "cost", "est ops/s", "meas ops/s",
                              "err %"});
    std::vector<double> errs;
    for (const bench::SweepPoint& p : tiered.points) {
      errs.push_back(std::fabs(p.throughput_error_pct));
      table.add_row({"MnemoT (accesses/size)",
                     util::TablePrinter::num(p.cost_factor, 3),
                     util::TablePrinter::num(p.est_throughput, 0),
                     util::TablePrinter::num(p.meas_throughput, 0),
                     util::TablePrinter::num(p.throughput_error_pct, 3)});
    }
    table.print();
    std::printf(
        "MnemoT |error| median: %.3f%% — the model stays accurate after "
        "re-ordering keys (paper Fig 8f).\n",
        stats::median(errs));
  }

  std::printf("\nwrote fig8_accuracy.csv\n");
  bench::print_campaign_totals();
  return 0;
}
