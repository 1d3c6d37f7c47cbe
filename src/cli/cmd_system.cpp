#include <cstdio>

#include "cli/cli_common.hpp"
#include "cli/commands.hpp"
#include "core/migration.hpp"
#include "hybridmem/emulation_profile.hpp"
#include "util/bytes.hpp"
#include "util/table.hpp"

namespace mnemo::cli {

int cmd_migrate(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser(
      "mnemo migrate",
      "dynamic re-tiering (MnemoDyn extension) vs static placement");
  add_workload_options(parser);
  parser.add_option("store", "store architecture", "vermilion");
  parser.add_option("threads",
                    "task-scheduler worker threads for measurement "
                    "campaigns (0 = hardware)",
                    "0");
  parser.add_option("budget", "FastMem budget as a dataset fraction", "0.3");
  parser.add_option("epoch", "requests per re-tiering epoch", "2000");
  parser.add_option("cap", "max migrated bytes per epoch (0 = unlimited)",
                    "16777216");
  parser.add_flag("background", "migrations do not stall the client");
  parser.add_flag("reactive", "disable drift prediction");
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  const workload::Trace trace = load_workload(parser);
  const double budget = parser.get_double("budget");
  if (budget <= 0.0 || budget > 1.0) {
    err << "--budget must be in (0, 1]\n";
    return 2;
  }

  core::SensitivityConfig sens;
  sens.store = parse_store(parser.get("store"));
  sens.repeats = 1;
  sens.threads = static_cast<std::size_t>(parser.get_u64("threads"));
  core::MigrationConfig mig;
  mig.fast_budget_bytes = static_cast<std::uint64_t>(
      budget * static_cast<double>(trace.dataset_bytes()));
  mig.epoch_requests = parser.get_u64("epoch");
  mig.migration_bytes_per_epoch = parser.get_u64("cap");
  mig.foreground = !parser.has_flag("background");
  mig.predictive = !parser.has_flag("reactive");

  const core::DynamicTierer tierer(sens, mig);
  const core::RunMeasurement oracle = tierer.run_static_oracle(trace);
  const core::MigrationResult dynamic = tierer.run(trace);

  util::TablePrinter table({"strategy", "throughput (ops/s)", "vs static",
                            "keys moved", "migration (ms)"});
  table.add_row({"static oracle (MnemoT advice)",
                 util::TablePrinter::num(oracle.throughput_ops, 0), "0.0%",
                 "0", "0"});
  table.add_row(
      {mig.predictive ? "dynamic (predictive)" : "dynamic (reactive)",
       util::TablePrinter::num(dynamic.measurement.throughput_ops, 0),
       util::TablePrinter::pct(
           dynamic.measurement.throughput_ops / oracle.throughput_ops - 1.0,
           1),
       std::to_string(dynamic.migrations),
       util::TablePrinter::num(dynamic.migration_ns / 1e6, 0)});
  out << "workload: " << trace.name() << ", FastMem budget "
      << util::format_bytes(mig.fast_budget_bytes) << "\n"
      << table.render();
  return 0;
}

int cmd_testbed(const Args&, std::ostream& out, std::ostream&) {
  const auto p = hybridmem::paper_testbed();
  util::TablePrinter table({"node", "latency (ns)", "bandwidth (GB/s)",
                            "capacity"});
  table.add_row({std::string(p.fast.name),
                 util::TablePrinter::num(p.fast.latency_ns, 1),
                 util::TablePrinter::num(p.fast.bandwidth_gbps, 2),
                 util::format_bytes(p.fast.capacity_bytes)});
  table.add_row({std::string(p.slow.name),
                 util::TablePrinter::num(p.slow.latency_ns, 1),
                 util::TablePrinter::num(p.slow.bandwidth_gbps, 2),
                 util::format_bytes(p.slow.capacity_bytes)});
  out << table.render();
  char line[160];
  std::snprintf(line, sizeof line,
                "factors: B %.2fx bandwidth, L %.2fx latency; LLC %s\n",
                p.bandwidth_factor(), p.latency_factor(),
                util::format_bytes(p.llc_bytes).c_str());
  out << line;
  return 0;
}

int cmd_help(std::ostream& out) {
  out << "mnemo — memory sizing & data tiering consultant for hybrid "
         "memory systems\n\n"
         "usage: mnemo <command> [options]\n\n"
         "commands:\n"
         "  workloads    list the built-in Table III workload suite\n"
         "  generate     materialize a workload trace to CSV\n"
         "  inspect      characterize a workload (skew, reuse, cache fit)\n"
         "  run          run Mnemo/MnemoT on a workload, emit the advice\n"
         "  profile      alias of run\n"
         "  characterize stage 1: access pattern and key ordering\n"
         "  measure      stage 2: baseline measurement campaign\n"
         "  advise       stages 1-4: SLO verdict (warm cache: no replays)\n"
         "  report       stages 1-5: byte-stable report artifact\n"
         "  serve        long-running JSON service (pipe or Unix socket)\n"
         "  fsck         scan an artifact cache for crash damage\n"
         "  compare      profile one workload across all three stores\n"
         "  plan         capacity plan for the whole suite at an SLO\n"
         "  spec         print a workload spec-file template\n"
         "  downsample   shrink a trace while preserving its distribution\n"
         "  tails        mixture-model tail estimates along the curve\n"
         "  migrate      dynamic re-tiering vs static placement\n"
         "  testbed      show the emulated platform (Table I)\n"
         "  help         this text\n\n"
         "pipeline commands take --cache-dir DIR to reuse artifacts across "
         "runs,\n--no-cache to bypass it, and --explain-cache to see "
         "per-stage decisions.\n\n"
         "run `mnemo <command> --help` is not needed: invalid options "
         "print the command's usage.\n";
  return 0;
}

}  // namespace mnemo::cli
