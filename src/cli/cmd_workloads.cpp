#include <cstdio>

#include "cli/cli_common.hpp"
#include "cli/commands.hpp"
#include "hybridmem/emulation_profile.hpp"
#include "util/bytes.hpp"
#include "util/table.hpp"
#include "workload/characterize.hpp"
#include "workload/downsample.hpp"
#include "workload/spec_file.hpp"
#include "workload/suite.hpp"

namespace mnemo::cli {

int cmd_workloads(const Args&, std::ostream& out, std::ostream&) {
  util::TablePrinter table({"name", "distribution", "ratio", "record size",
                            "use case"});
  for (const auto& spec : workload::paper_suite()) {
    table.add_row({spec.name, std::string(to_string(spec.distribution)),
                   spec.ratio_label(),
                   std::string(to_string(spec.record_size)), spec.use_case});
  }
  out << table.render();
  out << "\nall workloads: 10,000 keys and 100,000 requests (Table III).\n";
  return 0;
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo generate", "materialize a workload trace");
  add_workload_options(parser);
  parser.add_option("out", "output trace CSV path", "trace.csv");
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  const workload::Trace trace = load_workload(parser);
  trace.save_csv(parser.get("out"));
  out << "wrote " << parser.get("out") << ": " << trace.requests().size()
      << " requests over " << trace.key_count() << " keys ("
      << util::format_bytes(trace.dataset_bytes()) << " dataset)\n";
  return 0;
}

int cmd_spec(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo spec",
                         "print a workload spec file (template for "
                         "custom workloads)");
  parser.add_option("workload", "built-in workload to dump", "trending");
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  out << workload::format_spec(
      workload::paper_workload(parser.get("workload")));
  return 0;
}

int cmd_inspect(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo inspect",
                         "characterize a workload: skew, reuse distances, "
                         "cache-fit prediction");
  add_workload_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  const workload::Trace trace = load_workload(parser);
  const workload::Characterization c = workload::characterize(trace);

  util::TablePrinter table({"metric", "value"});
  table.add_row({"keys", std::to_string(c.keys)});
  table.add_row({"requests", std::to_string(c.requests)});
  table.add_row({"dataset", util::format_bytes(c.dataset_bytes)});
  table.add_row({"read fraction", util::TablePrinter::pct(c.read_fraction, 1)});
  table.add_row(
      {"insert fraction", util::TablePrinter::pct(c.insert_fraction, 1)});
  table.add_row({"hot-10% share", util::TablePrinter::pct(c.hot10_share, 1)});
  table.add_row({"hot-20% share", util::TablePrinter::pct(c.hot20_share, 1)});
  table.add_row({"gini (popularity)", util::TablePrinter::num(c.gini, 3)});
  table.add_row({"reuse distance p50",
                 util::format_bytes(
                     static_cast<std::uint64_t>(c.reuse_p50_bytes))});
  table.add_row({"reuse distance p90",
                 util::format_bytes(
                     static_cast<std::uint64_t>(c.reuse_p90_bytes))});
  table.add_row({"reuse distance p99",
                 util::format_bytes(
                     static_cast<std::uint64_t>(c.reuse_p99_bytes))});
  table.add_row({"cold accesses", std::to_string(c.cold_accesses)});
  const auto platform = hybridmem::paper_testbed();
  const auto bypass = static_cast<std::uint64_t>(
      platform.llc_bypass_fraction * static_cast<double>(platform.llc_bytes));
  table.add_row(
      {"predicted LLC hit rate (12 MiB)",
       util::TablePrinter::pct(
           c.predicted_hit_rate(platform.llc_bytes, bypass), 1)});
  out << "workload: " << trace.name() << "\n" << table.render();
  out << "\nreuse distances are byte-granular LRU stack distances; the "
         "LLC prediction follows from them directly.\n";
  return 0;
}

int cmd_downsample(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo downsample",
                         "shrink a trace, preserving its distribution");
  add_workload_options(parser);
  parser.add_option("keep", "fraction of requests to keep", "0.1");
  parser.add_option("out", "output trace CSV path", "downsampled.csv");
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  const workload::Trace trace = load_workload(parser);
  const double keep = parser.get_double("keep");
  if (keep <= 0.0 || keep > 1.0) {
    err << "--keep must be in (0, 1]\n";
    return 2;
  }
  const workload::Trace down =
      workload::downsample(trace, keep, trace.key_count() ^ 0xd5);
  if (down.requests().empty()) {
    err << "--keep " << parser.get("keep") << " keeps none of "
        << trace.requests().size() << " requests\n";
    return 2;
  }
  down.save_csv(parser.get("out"));
  char line[160];
  std::snprintf(line, sizeof line,
                "kept %zu of %zu requests; key-distribution distance %.4f\n",
                down.requests().size(), trace.requests().size(),
                workload::key_distribution_distance(trace, down));
  out << line << "wrote " << parser.get("out") << "\n";
  return 0;
}

}  // namespace mnemo::cli
