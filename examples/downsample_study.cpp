// Workload downsampling study (paper §V-A "Workload downsampling").
//
// Real request logs run to millions of entries; Mnemo's inputs can be a
// downsized sample as long as the key-popularity structure survives. This
// example downsamples Timeline at several keep-rates, re-profiles, and
// compares the resulting cost/performance advice against the full trace.

//   ./downsample_study [threads]   (0 = hardware concurrency)

#include <cstdio>
#include <optional>

#include "core/campaign.hpp"
#include "core/mnemo.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"
#include "workload/downsample.hpp"
#include "workload/suite.hpp"

int main(int argc, char** argv) {
  using namespace mnemo;
  const std::optional<std::uint64_t> threads =
      argc > 1 ? util::parse_u64(argv[1]) : 0;
  if (argc > 2 || !threads) {
    std::fprintf(stderr,
                 "%s: threads must be a non-negative integer (0 = "
                 "hardware)\nusage: %s [threads]\n",
                 argv[0], argv[0]);
    return 2;
  }
  const workload::Trace full =
      workload::Trace::generate(workload::paper_workload("timeline"));

  core::MnemoConfig config;
  config.repeats = 2;
  config.threads = static_cast<std::size_t>(*threads);
  const core::Mnemo mnemo(config);

  const core::MnemoReport full_report = mnemo.profile(full);
  const double full_cost = full_report.slo_choice->cost_factor;

  util::TablePrinter table({"keep rate", "requests", "KS distance",
                            "sensitivity", "SLO cost R(p)",
                            "advice drift vs full"});
  table.add_row(
      {"100% (full)", std::to_string(full.requests().size()), "0.000",
       util::TablePrinter::pct(full_report.baselines.sensitivity(), 1),
       util::TablePrinter::num(full_cost, 3), "-"});

  for (const double keep : {0.5, 0.25, 0.1, 0.05}) {
    const workload::Trace down = workload::downsample(full, keep, 0xd0);
    const double ks = workload::key_distribution_distance(full, down);
    const core::MnemoReport report = mnemo.profile(down);
    const double cost = report.slo_choice ? report.slo_choice->cost_factor
                                          : 1.0;
    char drift[32];
    std::snprintf(drift, sizeof drift, "%+.3f", cost - full_cost);
    table.add_row({util::TablePrinter::pct(keep, 0),
                   std::to_string(down.requests().size()),
                   util::TablePrinter::num(ks, 4),
                   util::TablePrinter::pct(report.baselines.sensitivity(), 1),
                   util::TablePrinter::num(cost, 3), drift});
  }
  table.print();

  std::printf(
      "\nrandom-interval eviction preserves the key-popularity CDF (small "
      "KS distance), so the downsized profile reproduces the full trace's "
      "sensitivity and lands on (nearly) the same sizing advice — the "
      "paper's claim that sampled workloads suffice as Mnemo inputs.\n\n%s",
      core::campaign_totals().render("campaign totals").c_str());
  return 0;
}
