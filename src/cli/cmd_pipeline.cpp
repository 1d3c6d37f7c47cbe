#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "cli/cli_common.hpp"
#include "cli/commands.hpp"
#include "core/render.hpp"
#include "util/bytes.hpp"

/// The staged pipeline exposed as subcommands: each one materializes its
/// stage (and the stages it depends on) through a core::Session, so a
/// warm artifact cache lets `advise`/`report` answer without a single
/// emulator replay. All of them share the profile flag set plus
/// --cache-dir/--no-cache/--explain-cache.
namespace mnemo::cli {

namespace {

void add_pipeline_options(util::ArgParser& parser) {
  add_workload_options(parser);
  add_mnemo_options(parser);
  add_fault_options(parser);
  add_cache_options(parser);
  parser.add_option("out", "advice CSV path (key id, est throughput, cost)",
                    "");
}

/// The command's session. The config is parsed before the workload is
/// loaded, in a statement of its own, so when both are bad the config's
/// error (say, `--store`) is the one reported, whatever order a compiler
/// evaluates constructor arguments in.
core::Session open_session(const util::ArgParser& parser,
                           faultinject::FailPolicy& policy) {
  core::SessionConfig config = session_config(parser, policy);
  return core::Session(load_workload(parser), std::move(config));
}

/// "campaign cells executed: N" — the observable behind the incremental
/// re-run contract: 0 on a warm cache, grid-size on a cold one.
void print_cells_executed(const core::Session& session, std::ostream& out) {
  out << "campaign cells executed: " << session.campaign_cells_run() << "\n";
}

}  // namespace

int cmd_run(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo run",
                         "run the full pipeline: characterize -> measure "
                         "-> estimate -> advise -> report");
  add_pipeline_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  faultinject::FailPolicy policy{};
  core::Session session = open_session(parser, policy);
  print_fault_banner(session.config().mnemo.faults, policy, out);
  return emit_session_report(parser, session, policy, out, err);
}

int cmd_characterize(const Args& args, std::ostream& out,
                     std::ostream& err) {
  util::ArgParser parser("mnemo characterize",
                         "stage 1 only: access pattern and key ordering");
  add_pipeline_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  faultinject::FailPolicy policy{};
  core::Session session = open_session(parser, policy);
  out << core::render_characterize(session.trace(), session.characterize());
  maybe_explain_cache(parser, session, out);
  return 0;
}

int cmd_measure(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo measure",
                         "stage 2 only: run (or load) the baseline "
                         "measurement campaign");
  add_pipeline_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  faultinject::FailPolicy policy{};
  core::Session session = open_session(parser, policy);
  print_fault_banner(session.config().mnemo.faults, policy, out);
  const core::MeasureArtifact& m = session.measure();
  out << core::render_measure(m);
  print_cells_executed(session, out);
  print_quarantine(m.failures, out);
  maybe_explain_cache(parser, session, out);
  maybe_print_campaign_stats(parser, out);
  return fault_abort_exit(policy, m.failures, err);
}

int cmd_advise(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo advise",
                         "stages 1-4: SLO verdict for --slo/--p, reusing "
                         "any cached measurement grid");
  add_pipeline_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  faultinject::FailPolicy policy{};
  core::Session session = open_session(parser, policy);
  print_fault_banner(session.config().mnemo.faults, policy, out);
  const core::AdviseArtifact& verdict = session.advise();
  const core::MeasureArtifact& m = session.measure();
  out << core::render_advise(m, verdict);
  print_cells_executed(session, out);
  print_quarantine(m.failures, out);
  maybe_explain_cache(parser, session, out);
  maybe_print_campaign_stats(parser, out);
  return fault_abort_exit(policy, m.failures, err);
}

int cmd_report(const Args& args, std::ostream& out, std::ostream& err) {
  util::ArgParser parser("mnemo report",
                         "stages 1-5: the rendered report artifact only "
                         "(byte-stable; diffable across runs)");
  add_pipeline_options(parser);
  std::string error;
  if (!parser.parse(args, &error)) {
    err << error << "\n" << parser.help();
    return 2;
  }
  faultinject::FailPolicy policy{};
  core::Session session = open_session(parser, policy);
  const core::ReportArtifact& report = session.report();
  out << report.text;
  if (!parser.get("out").empty() && !session.measure().degraded) {
    std::ofstream file(parser.get("out"), std::ios::binary);
    if (!file) {
      err << "error: cannot open " << parser.get("out") << "\n";
      return 1;
    }
    file << report.csv;
  }
  maybe_explain_cache(parser, session, out);
  return fault_abort_exit(policy, session.measure().failures, err);
}

}  // namespace mnemo::cli
