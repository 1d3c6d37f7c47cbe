#include "cli/cli_common.hpp"
#include "cli/commands.hpp"
#include "core/campaign.hpp"
#include "core/mnemo.hpp"
#include "core/tail_estimator.hpp"
#include "kvstore/factory.hpp"
#include "util/bytes.hpp"
#include "util/table.hpp"
#include "workload/suite.hpp"

namespace mnemo::cli {

int cmd_plan(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo plan",
                         "capacity plan for the Table III suite");
  add_mnemo_options(parser);
  add_fault_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  core::MnemoConfig cfg = mnemo_config(parser);
  const faultinject::FailPolicy policy = apply_fault_options(parser, cfg);
  const core::Mnemo mnemo(cfg);
  print_fault_banner(cfg.faults, policy, out);
  util::TablePrinter table(
      {"workload", "DRAM", "NVM", "cost vs DRAM-only", "slowdown"});
  std::vector<core::CellFailure> all_failures;
  std::string first_failed_workload;
  for (const auto& spec : workload::paper_suite()) {
    const workload::Trace trace = workload::Trace::generate(spec);
    const core::MnemoReport report = mnemo.profile(trace);
    if (report.partial()) {
      if (all_failures.empty()) first_failed_workload = spec.name;
      all_failures.insert(all_failures.end(), report.cell_failures.begin(),
                          report.cell_failures.end());
    }
    if (report.degraded) {
      table.add_row({spec.name, "-", "-", "quarantined", "-"});
      continue;
    }
    if (!report.slo_choice) {
      table.add_row({spec.name, "-", "-", "SLO unreachable", "-"});
      continue;
    }
    const core::SloChoice& c = *report.slo_choice;
    table.add_row(
        {spec.name, util::format_bytes(c.point.fast_bytes),
         util::format_bytes(trace.dataset_bytes() - c.point.fast_bytes),
         util::TablePrinter::pct(c.cost_factor, 0),
         util::TablePrinter::pct(c.slowdown_vs_fast, 1)});
  }
  out << table.render();
  if (!cfg.faults.empty()) {
    print_quarantine(all_failures, out);
    if (all_failures.empty()) out << "\nno campaign cells quarantined\n";
  }
  maybe_print_campaign_stats(parser, out);
  return fault_abort_exit(policy, all_failures, err,
                          "workload " + first_failed_workload + " ");
}

int cmd_compare(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo compare",
                         "profile one workload across all three store "
                         "architectures");
  add_workload_options(parser);
  add_mnemo_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  const workload::Trace trace = load_workload(parser);
  core::MnemoConfig cfg = mnemo_config(parser);
  util::TablePrinter table({"store", "FastMem-only ops/s",
                            "SlowMem-only ops/s", "sensitivity",
                            "SLO cost R(p)", "savings"});
  for (const kvstore::StoreKind kind : kvstore::kAllStoreKinds) {
    cfg.store = kind;
    const core::Mnemo mnemo(cfg);
    const core::MnemoReport report = mnemo.profile(trace);
    std::string cost = "-";
    std::string savings = "-";
    if (report.slo_choice) {
      cost = util::TablePrinter::num(report.slo_choice->cost_factor, 3);
      savings =
          util::TablePrinter::pct(report.slo_choice->savings_vs_fast, 1);
    }
    table.add_row(
        {std::string(kvstore::to_string(kind)),
         util::TablePrinter::num(report.baselines.fast.throughput_ops, 0),
         util::TablePrinter::num(report.baselines.slow.throughput_ops, 0),
         util::TablePrinter::pct(report.baselines.sensitivity(), 1), cost,
         savings});
  }
  out << "workload: " << trace.name() << "\n" << table.render();
  maybe_print_campaign_stats(parser, out);
  return 0;
}

int cmd_tails(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo tails",
                         "mixture-model tail estimates along the curve");
  add_workload_options(parser);
  add_mnemo_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  const workload::Trace trace = load_workload(parser);
  const core::MnemoConfig cfg = mnemo_config(parser);
  const core::Mnemo mnemo(cfg);
  const core::MnemoReport report = mnemo.profile(trace);
  util::TablePrinter table({"FastMem keys", "cost R(p)", "fast req share",
                            "est p50 (us)", "est p95 (us)", "est p99 (us)"});
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(report.curve.points.size() - 1));
    const core::EstimatePoint& p = report.curve.points[idx];
    const core::TailEstimate est = core::TailEstimator::estimate(
        report.pattern, report.order, p.fast_keys, report.baselines);
    table.add_row({std::to_string(p.fast_keys),
                   util::TablePrinter::num(p.cost_factor, 3),
                   util::TablePrinter::pct(est.fast_request_share, 1),
                   util::TablePrinter::num(est.p50_ns / 1e3, 1),
                   util::TablePrinter::num(est.p95_ns / 1e3, 1),
                   util::TablePrinter::num(est.p99_ns / 1e3, 1)});
  }
  out << table.render();
  out << "\ntails use the baseline-mixture extension (the paper reports "
         "but does not estimate tails).\n";
  maybe_print_campaign_stats(parser, out);
  return 0;
}

}  // namespace mnemo::cli
