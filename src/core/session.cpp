#include "core/session.hpp"

#include <sstream>
#include <utility>

#include "core/campaign.hpp"
#include "core/estimate_engine.hpp"
#include "core/pattern_engine.hpp"
#include "core/render.hpp"
#include "core/sensitivity_engine.hpp"
#include "core/slo_advisor.hpp"
#include "core/tiering.hpp"
#include "hybridmem/placement.hpp"
#include "kvstore/kvstore.hpp"
#include "util/assert.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace mnemo::core {

namespace {

/// Stage-entry cancellation point. Placed *after* the in-memory memo
/// check in each accessor: an answer this session already computed is
/// returned even past the deadline (it costs nothing), but no new work —
/// not even a disk load — starts for a canceled request.
void check_cancel(const MnemoConfig& cfg) {
  if (cfg.cancel != nullptr) cfg.cancel->check();
}

/// The measure stage's accept and save rule: only a grid with no
/// quarantined cell may persist or be adopted, so a cache can never
/// launder a faulted grid into a clean one.
bool clean_measure(const MeasureArtifact& m) {
  return !m.degraded && m.failures.empty();
}

/// The baseline grid every measure stage runs: all keys in FastMem, then
/// all in SlowMem.
std::vector<hybridmem::Placement> baseline_placements(
    const workload::Trace& trace) {
  return {hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kFast),
          hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kSlow)};
}

/// Workload identity: the materialized trace bytes. Uniform across CSV-
/// loaded and spec-generated workloads — two specs that materialize the
/// same requests share every cached artifact.
void hash_trace(util::StableHasher& h, const workload::Trace& trace) {
  h.str(trace.name());
  h.u64(trace.key_count());
  h.u64(trace.initial_key_count());
  h.u64_span(trace.key_sizes());
  h.u64(trace.requests().size());
  for (const workload::Request& req : trace.requests()) {
    h.u32(req.key);
    h.u8(static_cast<std::uint8_t>(req.op));
  }
}

void hash_node(util::StableHasher& h, const hybridmem::NodeSpec& node) {
  h.str(node.name);
  h.f64(node.latency_ns);
  h.f64(node.bandwidth_gbps);
  h.u64(node.capacity_bytes);
}

/// Every emulator constant a measurement depends on.
void hash_platform(util::StableHasher& h,
                   const hybridmem::EmulationProfile& p) {
  hash_node(h, p.fast);
  hash_node(h, p.slow);
  h.u64(p.llc_bytes);
  h.f64(p.llc_latency_ns);
  h.f64(p.llc_bandwidth_gbps);
  h.f64(p.llc_bypass_fraction);
}

void hash_fault_plan(util::StableHasher& h,
                     const faultinject::FaultPlan& plan) {
  h.u64(plan.seed);
  h.f64(plan.transient_read_rate);
  h.i32(plan.transient_max_retries);
  h.f64(plan.transient_retry_cost_ns);
  h.f64(plan.transient_recover_prob);
  h.f64(plan.poison_rate);
  h.f64(plan.poison_remap_cost_ns);
  h.u64(plan.bw_period_accesses);
  h.u64(plan.bw_window_accesses);
  h.f64(plan.bw_degraded_factor);
}

}  // namespace

KeyedTrace::KeyedTrace(workload::Trace trace)
    : trace_(std::make_shared<const workload::Trace>(std::move(trace))) {
  util::StableHasher h;
  hash_trace(h, *trace_);
  key_ = h.hex();
}

Session::Session(KeyedTrace trace, SessionConfig config)
    : trace_(std::move(trace)),
      config_(std::move(config)),
      store_(config_.cache_dir) {
  if (config_.mnemo.ordering == OrderingPolicy::kExternal) {
    MNEMO_EXPECTS(config_.external_order.has_value());
  }
  if (config_.external_order) {
    MNEMO_EXPECTS(config_.external_order->size() ==
                  trace_.trace().key_count());
  }
}

Session::Session(workload::Trace trace, SessionConfig config)
    : Session(KeyedTrace(std::move(trace)), std::move(config)) {}

OrderingPolicy Session::effective_ordering() const {
  return config_.external_order ? OrderingPolicy::kExternal
                                : config_.mnemo.ordering;
}

std::string Session::trace_key() const { return trace_.key(); }

std::string Session::characterize_key() const {
  util::StableHasher h;
  h.str("characterize");
  h.str(trace_.key());
  h.str(to_string(effective_ordering()));
  if (config_.external_order) h.u64_span(*config_.external_order);
  return h.hex();
}

std::string Session::measure_key() const {
  // Everything the campaign grid's output depends on — and nothing it
  // does not: thread count and fail policy change scheduling and
  // presentation, never measured bytes (DESIGN.md §6), so they are
  // deliberately absent and a cache written at --threads 8 serves a
  // --threads 1 run.
  util::StableHasher h;
  h.str("measure");
  h.str(trace_.key());
  h.str(kvstore::to_string(config_.mnemo.store));
  hash_platform(h, config_.mnemo.platform);
  // Where earlier builds hashed their payload-mode setting, the value
  // every production run had: their keys keep addressing their artifacts
  // (tests/fixtures/golden_cache_keys.txt pins them).
  h.u8(1);
  h.i32(config_.mnemo.repeats);
  h.u64(config_.mnemo.seed);
  hash_fault_plan(h, config_.mnemo.faults);
  return h.hex();
}

std::string Session::estimate_key() const {
  util::StableHasher h;
  h.str("estimate");
  h.str(measure_key());
  h.str(characterize_key());
  h.str(to_string(config_.mnemo.estimate_model));
  h.f64(config_.mnemo.price_factor);
  return h.hex();
}

std::string Session::advise_key() const {
  util::StableHasher h;
  h.str("advise");
  h.str(estimate_key());
  h.f64(config_.mnemo.slo_slowdown);
  return h.hex();
}

std::string Session::report_key() const {
  util::StableHasher h;
  h.str("report");
  h.str(advise_key());
  return h.hex();
}

void Session::trace_stage(std::string_view stage, const std::string& key,
                          bool from_cache, bool saved, bool joined) {
  traces_.push_back(
      StageTrace{std::string(stage), key, from_cache, saved, joined, {}});
}

template <typename A>
bool Session::probe(std::optional<A>& memo,
                    std::string (Session::*key)() const,
                    bool (*accept)(const A&)) {
  if (memo) return true;
  check_cancel(config_.mnemo);
  if (!cache_on()) return false;
  const std::string k = (this->*key)();
  LoadMiss miss;
  std::optional<A> cached = store_.load<A>(k, &miss);
  if (is_rejection(miss.reason)) {
    traces_.push_back(StageTrace{std::string(A::kStage), k, false, false,
                                 false, std::move(miss)});
  }
  if (!cached || (accept != nullptr && !accept(*cached))) return false;
  memo = std::move(cached);
  trace_stage(A::kStage, k, true, false);
  return true;
}

template <typename A>
const A& Session::install(std::optional<A>& memo, const std::string& key,
                          A a, bool clean) {
  bool saved = false;
  if (clean && cache_on()) saved = store_.save(key, a).ok();
  memo = std::move(a);
  trace_stage(A::kStage, key, false, saved);
  return *memo;
}

void Session::adopt_measure(MeasureArtifact measure) {
  MNEMO_EXPECTS(!measure_);
  MNEMO_EXPECTS(clean_measure(measure));
  measure_ = std::move(measure);
  trace_stage(MeasureArtifact::kStage, measure_key(), false, false, true);
}

const CharacterizeArtifact& Session::characterize() {
  if (probe(characterize_, &Session::characterize_key)) return *characterize_;
  CharacterizeArtifact a;
  a.ordering = effective_ordering();
  a.pattern = PatternEngine::analyze(trace());
  switch (a.ordering) {
    case OrderingPolicy::kTouchOrder:
      a.order = a.pattern.touch_order;
      break;
    case OrderingPolicy::kTiered:
      a.order = TieringEngine::priority_order(a.pattern);
      break;
    case OrderingPolicy::kExternal:
      a.order = *config_.external_order;
      break;
  }
  return install(characterize_, characterize_key(), std::move(a), true);
}

const MeasureArtifact& Session::measure() {
  // Belt and braces: a degraded artifact is never written, but if one
  // ever appears on disk, recompute rather than trust it.
  if (probe(measure_, &Session::measure_key, clean_measure)) return *measure_;
  // The checked campaign (DESIGN.md §7): a cell is accepted only when it
  // is bit-identical to the fault-free platform — with an empty plan,
  // every successful cell on its first attempt — and a lost baseline
  // quarantines the estimates instead of silently skewing them.
  const SensitivityEngine sensitivity(config_.mnemo);
  CampaignRunner runner(config_.mnemo.threads, config_.mnemo.cancel);
  return install_measured_grid(runner.measure_grid_checked(
      sensitivity, trace(), baseline_placements(trace())));
}

void Session::measure_async(std::shared_ptr<util::TaskScheduler::Group> group,
                            std::function<void(std::exception_ptr)> done) {
  MNEMO_EXPECTS(group != nullptr);
  // measure() with the other grid entry: the probe settles inline, in the
  // calling task; only a real campaign goes asynchronous, and `done` then
  // runs later as a scheduler task with the exception the sync path would
  // have thrown (or null). Exactly-once either way.
  try {
    if (probe(measure_, &Session::measure_key, clean_measure)) {
      done(nullptr);
      return;
    }
  } catch (...) {
    done(std::current_exception());
    return;
  }
  // The engine must outlive the in-flight cells, which outlive this
  // session method: the async grid keeps it alive via shared_ptr.
  CampaignRunner::measure_grid_checked_async(
      std::make_shared<const SensitivityEngine>(config_.mnemo),
      trace(), baseline_placements(trace()), config_.mnemo.cancel,
      std::move(group),
      [this, done = std::move(done)](CampaignRunner::AsyncOutcome outcome) {
        if (outcome.error == nullptr) {
          install_measured_grid(std::move(outcome.grid));
        }
        done(outcome.error);
      });
}

const MeasureArtifact& Session::install_measured_grid(CampaignResult grid) {
  MeasureArtifact a;
  a.failures = std::move(grid.failures);
  if (!grid.measurements[0] || !grid.measurements[1]) {
    a.degraded = true;
  } else {
    a.baselines.fast = *grid.measurements[0];
    a.baselines.slow = *grid.measurements[1];
  }
  // The grid the campaign just ran: {Fast, Slow} × repeats. Counted from
  // the grid shape, not the process-wide totals delta, so concurrent
  // sessions on a shared scheduler never bleed into each other's count.
  cells_run_ += grid_cells();
  const bool clean = clean_measure(a);
  return install(measure_, measure_key(), std::move(a), clean);
}

const EstimateArtifact& Session::estimate() {
  if (probe(estimate_, &Session::estimate_key)) return *estimate_;
  EstimateArtifact a;
  const MeasureArtifact& m = measure();
  if (!m.degraded) {
    const CharacterizeArtifact& c = characterize();
    const EstimateEngine estimator(CostModel(config_.mnemo.price_factor),
                                   config_.mnemo.estimate_model);
    a.curve = estimator.estimate(c.pattern, c.order, m.baselines);
  }
  return install(estimate_, estimate_key(), std::move(a), !m.degraded);
}

const AdviseArtifact& Session::advise() {
  if (probe(advise_, &Session::advise_key)) return *advise_;
  AdviseArtifact a;
  a.slo_slowdown = config_.mnemo.slo_slowdown;
  a.price_factor = config_.mnemo.price_factor;
  const MeasureArtifact& m = measure();
  if (m.degraded) {
    a.degraded = true;
  } else {
    const SloAdvisor advisor(config_.mnemo.slo_slowdown);
    a.result = advisor.advise(estimate().curve, m.baselines);
  }
  return install(advise_, advise_key(), std::move(a), !m.degraded);
}

const ReportArtifact& Session::report() {
  if (probe(report_, &Session::report_key)) return *report_;
  ReportArtifact a;
  std::ostringstream text;
  text << "workload: " << trace().name() << " on "
       << kvstore::to_string(config_.mnemo.store) << " ("
       << to_string(effective_ordering()) << " ordering, "
       << to_string(config_.mnemo.estimate_model) << " model)\n";
  const MeasureArtifact& m = measure();
  text << render_measure(m);
  if (!m.degraded) {
    text << render_verdict(advise());
    // The paper's CSV artifact, rendered to a string so cold and warm
    // runs can be diffed byte for byte (MnemoReport::write_csv writes the
    // same rendering to a file).
    a.csv = render_curve_csv(estimate().curve);
  }
  a.text = text.str();
  return install(report_, report_key(), std::move(a), !m.degraded);
}

void Session::set_slo(double slo_slowdown) {
  if (slo_slowdown == config_.mnemo.slo_slowdown) return;
  config_.mnemo.slo_slowdown = slo_slowdown;
  advise_.reset();
  report_.reset();
}

void Session::set_price(double price_factor) {
  if (price_factor == config_.mnemo.price_factor) return;
  config_.mnemo.price_factor = price_factor;
  estimate_.reset();
  advise_.reset();
  report_.reset();
}

std::string Session::explain_cache() const {
  std::ostringstream out;
  out << "cache: "
      << (store_.enabled()
              ? (config_.use_cache ? store_.dir() : store_.dir() +
                                                       " (bypassed)")
              : "disabled")
      << "\n";
  out << "stages:\n";
  for (const StageTrace& t : traces_) {
    if (is_rejection(t.rejected.reason)) continue;
    out << "  " << t.stage;
    for (std::size_t i = t.stage.size(); i < 12; ++i) out << ' ';
    out << ' ' << t.key << "  "
        << (t.from_cache
                ? "cached"
                : (t.joined ? "joined (single-flight)"
                            : (t.saved ? "computed, saved" : "computed")))
        << "\n";
  }
  bool any_reject = false;
  for (const StageTrace& t : traces_) {
    if (!is_rejection(t.rejected.reason)) continue;
    if (!any_reject) {
      out << "rejected artifacts (treated as misses):\n";
      any_reject = true;
    }
    out << "  " << t.stage << '-' << t.key
        << ".mna: " << to_string(t.rejected.reason);
    if (!t.rejected.detail.empty()) out << " (" << t.rejected.detail << ")";
    out << "\n";
  }
  return out.str();
}

MnemoReport Session::to_report() {
  MnemoReport r;
  r.workload = trace().name();
  r.store = config_.mnemo.store;
  const CharacterizeArtifact& c = characterize();
  r.ordering = c.ordering;
  r.pattern = c.pattern;
  r.order = c.order;
  const MeasureArtifact& m = measure();
  r.cell_failures = m.failures;
  r.degraded = m.degraded;
  if (m.degraded) return r;
  r.baselines = m.baselines;
  r.curve = estimate().curve;
  r.slo_choice = advise().result.choice;
  return r;
}

}  // namespace mnemo::core
