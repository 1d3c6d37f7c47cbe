// Capacity planner: the Fig 9 workflow as a deployable tool.
//
// Given a fleet of workloads, a store architecture, and a performance SLO,
// answer the operator question: "how much DRAM vs NVM should each
// deployment buy, and what does that do to the memory bill?"
//
//   ./capacity_planner [slo_slowdown] [threads] [cache_dir]
//     slo_slowdown defaults to 0.10 (the paper's SLO); threads controls
//     the measurement-campaign fan-out (0 = hardware concurrency);
//     cache_dir (optional) persists the measurement grids, so re-running
//     the planner with a different SLO answers from the artifact cache
//     without a single emulator replay.

#include <cstdio>
#include <optional>

#include "core/campaign.hpp"
#include "core/mnemo.hpp"
#include "core/session.hpp"
#include "kvstore/factory.hpp"
#include "util/argparse.hpp"
#include "util/bytes.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

int main(int argc, char** argv) {
  using namespace mnemo;
  const std::optional<double> slo_arg =
      argc > 1 ? util::parse_double(argv[1]) : 0.10;
  const std::optional<std::uint64_t> threads_arg =
      argc > 2 ? util::parse_u64(argv[2]) : 0;
  const char* bad = nullptr;
  if (!slo_arg || !(*slo_arg >= 0.0 && *slo_arg < 1.0)) {
    bad = "slo_slowdown must be a number in [0,1)";
  } else if (!threads_arg) {
    bad = "threads must be a non-negative integer (0 = hardware)";
  } else if (argc > 4) {
    bad = "too many arguments";
  }
  if (bad != nullptr) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [slo_slowdown] [threads] [cache_dir]\n",
                 argv[0], bad, argv[0]);
    return 2;
  }
  const double slo = *slo_arg;
  const auto threads = static_cast<std::size_t>(*threads_arg);
  const std::string cache_dir = argc > 3 ? argv[3] : "";
  std::printf("capacity plan at %.0f%% permissible slowdown, p = 0.2\n\n",
              slo * 100.0);

  util::TablePrinter table({"workload", "store", "DRAM to buy", "NVM to buy",
                            "memory bill", "slowdown", "validated"});

  std::size_t cells_executed = 0;
  for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
    core::SessionConfig config;
    config.mnemo.store = store;
    config.mnemo.repeats = 2;
    config.mnemo.threads = threads;
    config.mnemo.slo_slowdown = slo;
    config.mnemo.ordering = core::OrderingPolicy::kTiered;  // MnemoT
    config.cache_dir = cache_dir;
    // validate() needs a direct measurement outside the pipeline; the
    // profiling itself runs through the staged Session.
    const core::Mnemo mnemo(config.mnemo);

    for (const auto& spec : workload::paper_suite()) {
      const workload::Trace trace = workload::Trace::generate(spec);
      core::Session session(trace, config);
      const core::MnemoReport report = session.to_report();
      cells_executed += session.campaign_cells_run();
      if (!report.slo_choice) {
        table.add_row({spec.name, std::string(kvstore::to_string(store)),
                       "-", "-", "-", "-", "SLO unreachable"});
        continue;
      }
      const core::SloChoice& c = *report.slo_choice;
      const std::uint64_t total = trace.dataset_bytes();

      // Validate by executing the advised placement.
      const core::RunMeasurement validated =
          mnemo.validate(trace, report.order, c.point);
      const double real_slowdown =
          1.0 -
          validated.throughput_ops / report.baselines.fast.throughput_ops;

      table.add_row(
          {spec.name, std::string(kvstore::to_string(store)),
           util::format_bytes(c.point.fast_bytes),
           util::format_bytes(total - c.point.fast_bytes),
           util::TablePrinter::pct(c.cost_factor, 0) + " of DRAM-only",
           util::TablePrinter::pct(c.slowdown_vs_fast, 1),
           util::TablePrinter::pct(real_slowdown, 1)});
    }
  }
  table.print();
  std::printf("\ncampaign cells executed for the plan: %zu%s\n",
              cells_executed,
              cache_dir.empty() ? "" : " (0 means fully warm cache)");
  std::printf(
      "'validated' re-executes the advised placement; it should sit at "
      "or under the SLO column.\n\n%s",
      core::campaign_totals().render("campaign totals").c_str());
  return 0;
}
