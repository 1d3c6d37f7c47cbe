#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "faultinject/fault_plan.hpp"
#include "util/argparse.hpp"
#include "workload/trace.hpp"

/// Option plumbing shared by the mnemo subcommands (one per cmd_*.cpp).
/// Everything here is presentation/parsing glue; the work itself lives in
/// core::Session — the CLI's only orchestration path.
namespace mnemo::cli {

kvstore::StoreKind parse_store(const std::string& name);
core::EstimateModel parse_model(const std::string& name);

/// Shared workload-source options: either --trace file.csv or --workload
/// plus optional overrides.
void add_workload_options(util::ArgParser& parser);
workload::Trace load_workload(const util::ArgParser& parser);

void add_mnemo_options(util::ArgParser& parser);
core::MnemoConfig mnemo_config(const util::ArgParser& parser);

/// Fault-injection options — only the profiling-shaped commands take
/// them, so the other commands keep rejecting the flags with their usage
/// text.
void add_fault_options(util::ArgParser& parser);

/// Arm --faults on `cfg` and return the parsed --fail-policy: what a
/// quarantined campaign cell means for the command — kDegrade completes
/// with partial results, kAbort exits nonzero naming the failing cell. A
/// CLI setting only: the library always completes and reports.
faultinject::FailPolicy apply_fault_options(const util::ArgParser& parser,
                                            core::MnemoConfig& cfg);

/// Banner printed only when a fault plan is armed, so fault-free output
/// stays byte-identical to the healthy tool's.
void print_fault_banner(const faultinject::FaultPlan& faults,
                        faultinject::FailPolicy policy, std::ostream& out);

/// The quarantine footer: a blank line, "partial results: N campaign
/// cell(s) quarantined" and the failure ledger — nothing when no cell was
/// quarantined.
void print_quarantine(const std::vector<core::CellFailure>& failures,
                      std::ostream& out);

/// --fail-policy abort: when a cell was quarantined, name the first one on
/// `err` ("fault policy abort: <where>cell #…") and return exit code 1;
/// otherwise return 0. `where` places the cell (plan: "workload W ").
int fault_abort_exit(faultinject::FailPolicy policy,
                     const std::vector<core::CellFailure>& failures,
                     std::ostream& err, const std::string& where = "");

/// Append the process-wide campaign accounting when --stats was given.
void maybe_print_campaign_stats(const util::ArgParser& parser,
                                std::ostream& out);

/// Artifact-cache options of the pipeline commands: --cache-dir,
/// --no-cache, --explain-cache.
void add_cache_options(util::ArgParser& parser);

/// Full session config: mnemo knobs + fault plan + cache policy. `policy`
/// receives the parsed --fail-policy (see apply_fault_options).
core::SessionConfig session_config(const util::ArgParser& parser,
                                   faultinject::FailPolicy& policy);

/// Print the per-stage cache account when --explain-cache was given.
void maybe_explain_cache(const util::ArgParser& parser,
                         core::Session& session, std::ostream& out);

/// Tail of `run` (and its alias `profile`): report
/// text, optional --out CSV, quarantine ledger, cache/stats diagnostics.
/// Returns the exit code (honors --fail-policy abort).
int emit_session_report(const util::ArgParser& parser,
                        core::Session& session,
                        faultinject::FailPolicy policy, std::ostream& out,
                        std::ostream& err);

}  // namespace mnemo::cli
