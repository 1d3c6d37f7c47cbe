#include "cli/cli_common.hpp"

#include <fstream>
#include <limits>
#include <stdexcept>

#include "core/campaign.hpp"
#include "faultinject/fault_plan.hpp"
#include "kvstore/service_profile.hpp"
#include "workload/spec_file.hpp"
#include "workload/suite.hpp"

namespace mnemo::cli {

namespace {

/// A well-formed number outside the domain the consultant is defined on
/// takes the same named-error path as a malformed one.
void check_domain(const util::ArgParser& parser, const std::string& name,
                  bool in_domain, const std::string& domain) {
  if (!in_domain) {
    throw std::invalid_argument("--" + name + ": must be " + domain +
                                ", got " + parser.get(name));
  }
}

}  // namespace

kvstore::StoreKind parse_store(const std::string& name) {
  if (const auto kind = kvstore::parse_store_kind(name)) return *kind;
  throw std::invalid_argument(
      "--store: expected vermilion, cachet or dynastore, got " + name);
}

core::EstimateModel parse_model(const std::string& name) {
  if (const auto model = core::parse_estimate_model(name)) return *model;
  throw std::invalid_argument(
      "--model: expected uniform or size-aware, got " + name);
}

void add_workload_options(util::ArgParser& parser) {
  parser.add_option("trace", "load the workload from a trace CSV", "");
  parser.add_option("spec", "load the workload from a spec file "
                            "(see `spec` command for a template)",
                    "");
  parser.add_option("workload",
                    "built-in Table III workload name (see `workloads`)",
                    "trending");
  parser.add_option("keys", "override key count", "0");
  parser.add_option("requests", "override request count", "0");
  parser.add_option("seed", "workload seed", "0");
}

workload::Trace load_workload(const util::ArgParser& parser) {
  if (!parser.get("trace").empty()) {
    return workload::Trace::load_csv(parser.get("trace"));
  }
  workload::WorkloadSpec spec =
      parser.get("spec").empty()
          ? workload::paper_workload(parser.get("workload"))
          : workload::load_spec_file(parser.get("spec"));
  if (parser.get_u64("keys") > 0) spec.key_count = parser.get_u64("keys");
  if (parser.get_u64("requests") > 0) {
    spec.request_count = parser.get_u64("requests");
  }
  if (parser.get_u64("seed") > 0) spec.seed = parser.get_u64("seed");
  return workload::Trace::generate(spec);
}

void add_mnemo_options(util::ArgParser& parser) {
  parser.add_option("store", "store architecture: vermilion (Redis-like), "
                             "cachet (Memcached-like), dynastore "
                             "(DynamoDB-like)",
                    "vermilion");
  parser.add_flag("tiered", "use MnemoT's accesses/size key ordering");
  parser.add_option("model", "estimate model: uniform | size-aware",
                    "size-aware");
  parser.add_option("p", "SlowMem price factor (cost floor)", "0.2");
  parser.add_option("slo", "permissible slowdown vs FastMem-only", "0.1");
  parser.add_option("repeats", "runs per measurement", "2");
  parser.add_option("threads",
                    "task-scheduler worker threads for measurement "
                    "campaigns (0 = hardware; results are identical at any "
                    "count)",
                    "0");
  parser.add_flag("stats",
                  "print campaign timing/occupancy stats after the run");
}

core::MnemoConfig mnemo_config(const util::ArgParser& parser) {
  core::MnemoConfig cfg;
  cfg.store = parse_store(parser.get("store"));
  cfg.ordering = parser.has_flag("tiered") ? core::OrderingPolicy::kTiered
                                           : core::OrderingPolicy::kTouchOrder;
  cfg.estimate_model = parse_model(parser.get("model"));
  cfg.price_factor = parser.get_double("p");
  check_domain(parser, "p", cfg.price_factor > 0.0 && cfg.price_factor < 1.0,
               "in (0, 1)");
  cfg.slo_slowdown = parser.get_double("slo");
  check_domain(parser, "slo",
               cfg.slo_slowdown >= 0.0 && cfg.slo_slowdown < 1.0,
               "in [0, 1)");
  const std::uint64_t repeats = parser.get_u64("repeats");
  check_domain(parser, "repeats",
               repeats >= 1 && repeats <= std::numeric_limits<int>::max(),
               "a positive int");
  cfg.repeats = static_cast<int>(repeats);
  cfg.threads = static_cast<std::size_t>(parser.get_u64("threads"));
  return cfg;
}

void add_fault_options(util::ArgParser& parser) {
  parser.add_option("faults",
                    "deterministic fault plan, comma-separated key=value "
                    "(keys: seed, transient, retries, retry_cost, recover, "
                    "poison, remap_cost, bw_period, bw_window, bw_factor)",
                    "");
  parser.add_option("fail-policy",
                    "quarantined-cell handling: degrade (complete with "
                    "partial results) | abort (exit nonzero)",
                    "degrade");
}

faultinject::FailPolicy apply_fault_options(const util::ArgParser& parser,
                                            core::MnemoConfig& cfg) {
  if (!parser.get("faults").empty()) {
    cfg.faults = faultinject::FaultPlan::parse(parser.get("faults"));
  }
  return faultinject::parse_fail_policy(parser.get("fail-policy"));
}

void print_fault_banner(const faultinject::FaultPlan& faults,
                        faultinject::FailPolicy policy, std::ostream& out) {
  if (faults.empty()) return;
  out << "faults: " << faults.summary() << " | policy "
      << faultinject::to_string(policy) << "\n";
}

void maybe_print_campaign_stats(const util::ArgParser& parser,
                                std::ostream& out) {
  if (!parser.has_flag("stats")) return;
  out << "\n" << core::campaign_totals().render("campaign totals");
}

void add_cache_options(util::ArgParser& parser) {
  parser.add_option("cache-dir",
                    "content-addressed artifact cache directory "
                    "(empty = no caching)",
                    "");
  parser.add_flag("no-cache",
                  "bypass the cache even when --cache-dir is set");
  parser.add_flag("explain-cache",
                  "print per-stage cache keys and hit/miss decisions");
}

core::SessionConfig session_config(const util::ArgParser& parser,
                                   faultinject::FailPolicy& policy) {
  core::SessionConfig sc;
  sc.mnemo = mnemo_config(parser);
  policy = apply_fault_options(parser, sc.mnemo);
  sc.cache_dir = parser.get("cache-dir");
  sc.use_cache = !parser.has_flag("no-cache");
  return sc;
}

void print_quarantine(const std::vector<core::CellFailure>& failures,
                      std::ostream& out) {
  if (failures.empty()) return;
  out << "\npartial results: " << failures.size()
      << " campaign cell(s) quarantined\n"
      << core::render_failure_ledger(failures);
}

int fault_abort_exit(faultinject::FailPolicy policy,
                     const std::vector<core::CellFailure>& failures,
                     std::ostream& err, const std::string& where) {
  if (failures.empty() || policy != faultinject::FailPolicy::kAbort) {
    return 0;
  }
  err << "fault policy abort: " << where << core::describe(failures.front())
      << "\n";
  return 1;
}

void maybe_explain_cache(const util::ArgParser& parser,
                         core::Session& session, std::ostream& out) {
  if (!parser.has_flag("explain-cache")) return;
  out << "\n" << session.explain_cache();
}

int emit_session_report(const util::ArgParser& parser,
                        core::Session& session,
                        faultinject::FailPolicy policy, std::ostream& out,
                        std::ostream& err) {
  const core::MnemoConfig& cfg = session.config().mnemo;
  out << session.report().text;
  const core::MeasureArtifact& m = session.measure();
  if (!m.degraded && !parser.get("out").empty()) {
    std::ofstream file(parser.get("out"), std::ios::binary);
    if (!file) {
      err << "error: cannot open " << parser.get("out") << "\n";
      return 1;
    }
    file << session.report().csv;
    out << "wrote " << parser.get("out") << " ("
        << session.estimate().curve.points.size() - 1 << " rows)\n";
  }
  print_quarantine(m.failures, out);
  if (m.failures.empty() && !cfg.faults.empty()) {
    out << "no campaign cells quarantined\n";
  }
  maybe_explain_cache(parser, session, out);
  maybe_print_campaign_stats(parser, out);
  return fault_abort_exit(policy, m.failures, err);
}

}  // namespace mnemo::cli
