#include "core/session.hpp"

#include <cstdio>
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
#include "util/csv.hpp"
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

Session::Session(workload::Trace trace, SessionConfig config)
    : trace_(std::move(trace)),
      config_(std::move(config)),
      own_store_(config_.shared_store != nullptr ? std::string()
                                                 : config_.cache_dir) {
  util::StableHasher h;
  hash_trace(h, trace_);
  trace_key_ = h.hex();
  if (config_.mnemo.ordering == OrderingPolicy::kExternal) {
    MNEMO_EXPECTS(config_.external_order.has_value());
  }
  if (config_.external_order) {
    MNEMO_EXPECTS(config_.external_order->size() == trace_.key_count());
  }
}

OrderingPolicy Session::effective_ordering() const {
  return config_.external_order ? OrderingPolicy::kExternal
                                : config_.mnemo.ordering;
}

std::string Session::trace_key() const { return trace_key_; }

std::string Session::characterize_key() const {
  util::StableHasher h;
  h.str("characterize");
  h.str(trace_key_);
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
  h.str(trace_key_);
  h.str(kvstore::to_string(config_.mnemo.store));
  hash_platform(h, config_.mnemo.platform);
  h.u8(static_cast<std::uint8_t>(config_.mnemo.payload_mode));
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
  traces_.push_back(StageTrace{std::string(stage), key, from_cache,
                               !from_cache && !joined, saved, joined});
}

void Session::adopt_measure(MeasureArtifact measure) {
  MNEMO_EXPECTS(!measure_);
  MNEMO_EXPECTS(!measure.degraded && measure.failures.empty());
  measure_ = std::move(measure);
  trace_stage(MeasureArtifact::kStage, measure_key(), false, false, true);
}

const CharacterizeArtifact& Session::characterize() {
  if (characterize_) return *characterize_;
  check_cancel(config_.mnemo);
  const std::string key = characterize_key();
  if (cache_on()) {
    if (auto cached = store().load<CharacterizeArtifact>(key)) {
      characterize_ = std::move(*cached);
      trace_stage(CharacterizeArtifact::kStage, key, true, false);
      return *characterize_;
    }
  }

  CharacterizeArtifact a;
  a.ordering = effective_ordering();
  a.pattern = PatternEngine::analyze(trace_);
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
  bool saved = false;
  if (cache_on()) saved = store().save(key, a).ok();
  characterize_ = std::move(a);
  trace_stage(CharacterizeArtifact::kStage, key, false, saved);
  return *characterize_;
}

const MeasureArtifact& Session::measure() {
  if (measure_) return *measure_;
  check_cancel(config_.mnemo);
  const std::string key = measure_key();
  if (cache_on()) {
    if (auto cached = store().load<MeasureArtifact>(key)) {
      // Belt and braces: a degraded artifact is never written (below),
      // but if one ever appears on disk, recompute rather than trust it.
      if (!cached->degraded && cached->failures.empty()) {
        measure_ = std::move(*cached);
        trace_stage(MeasureArtifact::kStage, key, true, false);
        return *measure_;
      }
    }
  }

  // The checked campaign (DESIGN.md §7): a cell is accepted only when it
  // is bit-identical to the fault-free platform — with an empty plan,
  // every successful cell on its first attempt — and a lost baseline
  // quarantines the estimates instead of silently skewing them.
  const SensitivityEngine sensitivity(to_sensitivity_config(config_.mnemo));
  CampaignRunner runner(config_.mnemo.threads, config_.mnemo.cancel);
  CampaignResult grid = runner.measure_grid_checked(
      sensitivity, trace_,
      {hybridmem::Placement(trace_.key_count(), hybridmem::NodeId::kFast),
       hybridmem::Placement(trace_.key_count(), hybridmem::NodeId::kSlow)});
  install_measured_grid(std::move(grid));
  return *measure_;
}

/// Everything after the checked baseline grid lands, shared by the sync
/// and async measure paths: artifact assembly, the degraded verdict, the
/// clean-only cache write, memoization, and the stage trace.
void Session::install_measured_grid(CampaignResult grid) {
  const std::string key = measure_key();
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

  // Never cache a degraded grid as if it were clean: only an artifact
  // with zero quarantined cells may persist.
  bool saved = false;
  if (cache_on() && !a.degraded && a.failures.empty()) {
    saved = store().save(key, a).ok();
  }
  measure_ = std::move(a);
  trace_stage(MeasureArtifact::kStage, key, false, saved);
}

void Session::measure_async(std::shared_ptr<util::TaskScheduler::Group> group,
                            std::function<void(std::exception_ptr)> done) {
  MNEMO_EXPECTS(group != nullptr);
  // The cheap resolutions — memo hit, cancellation, disk probe — mirror
  // measure() exactly and settle inline, in the calling task. Only a real
  // campaign goes asynchronous: its cells are submitted to `group` and
  // `done` runs later as a scheduler task, with the exception the sync
  // path would have thrown (or null). Exactly-once either way.
  try {
    if (measure_) {
      done(nullptr);
      return;
    }
    check_cancel(config_.mnemo);
    const std::string key = measure_key();
    if (cache_on()) {
      if (auto cached = store().load<MeasureArtifact>(key)) {
        if (!cached->degraded && cached->failures.empty()) {
          measure_ = std::move(*cached);
          trace_stage(MeasureArtifact::kStage, key, true, false);
          done(nullptr);
          return;
        }
      }
    }
  } catch (...) {
    done(std::current_exception());
    return;
  }

  // The engine must outlive the in-flight cells, which outlive this
  // session method: the async grid keeps it alive via shared_ptr.
  auto engine = std::make_shared<const SensitivityEngine>(
      to_sensitivity_config(config_.mnemo));
  CampaignRunner::measure_grid_checked_async(
      std::move(engine), trace_,
      {hybridmem::Placement(trace_.key_count(), hybridmem::NodeId::kFast),
       hybridmem::Placement(trace_.key_count(), hybridmem::NodeId::kSlow)},
      config_.mnemo.cancel, std::move(group),
      [this, done = std::move(done)](CampaignRunner::AsyncOutcome outcome) {
        if (outcome.error != nullptr) {
          done(outcome.error);
          return;
        }
        install_measured_grid(std::move(outcome.grid));
        done(nullptr);
      });
}

const EstimateArtifact& Session::estimate() {
  if (estimate_) return *estimate_;
  check_cancel(config_.mnemo);
  const std::string key = estimate_key();
  if (cache_on()) {
    if (auto cached = store().load<EstimateArtifact>(key)) {
      estimate_ = std::move(*cached);
      trace_stage(EstimateArtifact::kStage, key, true, false);
      return *estimate_;
    }
  }

  EstimateArtifact a;
  const MeasureArtifact& m = measure();
  if (!m.degraded) {
    const CharacterizeArtifact& c = characterize();
    const EstimateEngine estimator(CostModel(config_.mnemo.price_factor),
                                   config_.mnemo.estimate_model);
    a.curve = estimator.estimate(c.pattern, c.order, m.baselines);
  }
  bool saved = false;
  if (cache_on() && !m.degraded) saved = store().save(key, a).ok();
  estimate_ = std::move(a);
  trace_stage(EstimateArtifact::kStage, key, false, saved);
  return *estimate_;
}

const AdviseArtifact& Session::advise() {
  if (advise_) return *advise_;
  check_cancel(config_.mnemo);
  const std::string key = advise_key();
  if (cache_on()) {
    if (auto cached = store().load<AdviseArtifact>(key)) {
      advise_ = std::move(*cached);
      trace_stage(AdviseArtifact::kStage, key, true, false);
      return *advise_;
    }
  }

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
  bool saved = false;
  if (cache_on() && !m.degraded) saved = store().save(key, a).ok();
  advise_ = std::move(a);
  trace_stage(AdviseArtifact::kStage, key, false, saved);
  return *advise_;
}

const ReportArtifact& Session::report() {
  if (report_) return *report_;
  check_cancel(config_.mnemo);
  const std::string key = report_key();
  if (cache_on()) {
    if (auto cached = store().load<ReportArtifact>(key)) {
      report_ = std::move(*cached);
      trace_stage(ReportArtifact::kStage, key, true, false);
      return *report_;
    }
  }

  ReportArtifact a;
  std::ostringstream text;
  text << "workload: " << trace_.name() << " on "
       << kvstore::to_string(config_.mnemo.store) << " ("
       << to_string(effective_ordering()) << " ordering, "
       << to_string(config_.mnemo.estimate_model) << " model)\n";
  const MeasureArtifact& m = measure();
  text << render_measure(m);
  if (!m.degraded) {
    text << render_verdict(advise());

    // The paper's CSV artifact, rendered to a string so cold and warm
    // runs can be diffed byte for byte (MnemoReport::write_csv writes the
    // identical bytes to a file).
    std::ostringstream csv_stream;
    {
      util::csv::Writer w(csv_stream);
      w.row({"key_id", "est_throughput_ops", "cost_reduction_factor"});
      const EstimateCurve& curve = estimate().curve;
      for (std::size_t i = 1; i < curve.points.size(); ++i) {
        const EstimatePoint& p = curve.points[i];
        w.field(p.last_key)
            .field(p.est_throughput_ops, 10)
            .field(p.cost_factor, 6);
        w.end_row();
      }
    }
    a.csv = csv_stream.str();
  }
  a.text = text.str();

  bool saved = false;
  if (cache_on() && !m.degraded) saved = store().save(key, a).ok();
  report_ = std::move(a);
  trace_stage(ReportArtifact::kStage, key, false, saved);
  return *report_;
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
      << (store().enabled()
              ? (config_.use_cache ? store().dir() : store().dir() +
                                                        " (bypassed)")
              : "disabled")
      << "\n";
  out << "stages:\n";
  for (const StageTrace& t : traces_) {
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
  for (const StoreEvent& e : store().events()) {
    if (e.hit || e.miss == CacheMiss::kAbsent ||
        e.miss == CacheMiss::kDisabled) {
      continue;
    }
    if (!any_reject) {
      out << "rejected artifacts (treated as misses):\n";
      any_reject = true;
    }
    out << "  " << e.stage << '-' << e.key << ".mna: " << to_string(e.miss);
    if (!e.detail.empty()) out << " (" << e.detail << ")";
    out << "\n";
  }
  return out.str();
}

MnemoReport Session::to_report() {
  MnemoReport r;
  r.workload = trace_.name();
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
