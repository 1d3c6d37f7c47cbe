// consult and sweep: closed loops with one client over a fixed pool of
// paper-scale Table III inputs (5 workloads x 3 stores), cycled in whole
// rounds so every run weighs each input the same whatever its seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/mnemo.hpp"
#include "core/placement_engine.hpp"
#include "core/session.hpp"
#include "flows.hpp"
#include "kvstore/factory.hpp"
#include "workload/suite.hpp"

namespace e2e {
namespace {

using namespace mnemo;

/// The library default, as `mnemo run` uses it.
constexpr int kRepeats = 3;
/// consult: nproc - 1 campaign workers on the 4-core host the benchmark
/// was sized on; the client thread helps run cells, so at most four
/// threads are busy.
constexpr std::size_t kConsultWorkers = 3;
/// Set-up (five trace generations, 20-30 ms) is repeated for about a
/// second and its median reported. The host's speed moves between two
/// levels ~1.5x apart in phases of 0.1 s to several seconds, so one
/// set-up reads either level (see README.md, Steadiness).
constexpr int kSetupRepeats = 40;
/// Reference bursts after each set-up (1.5 ms a build) and before each
/// operation: about 0.5 ms per consult (~1%) and 2 ms per sweep (~0.4%),
/// so that each run times a few hundred.
constexpr int kSetupBursts = 3;
constexpr int kConsultBursts = 1;
constexpr int kSweepBursts = 4;
/// Samples needed for the fixed tail percentiles: p95 of consult needs
/// 200 (14 rounds of 15), p75 of sweep needs 40 (3 rounds).
constexpr double kConsultTail = 0.95;
constexpr double kSweepTail = 0.75;
/// Fig 5/8 validation points along the estimate curve.
constexpr double kFractions[] = {0.0,   0.125, 0.25,  0.375, 0.5,
                                 0.625, 0.75,  0.875, 1.0};
constexpr std::size_t kValidateCells = std::size(kFractions) * kRepeats;
/// Fig 8a: median |throughput estimate error| stays within 0.1%.
constexpr double kMaxThrErrPct = 0.1;

struct Input {
  std::size_t trace = 0;
  kvstore::StoreKind store{};
  std::string key;  ///< "<workload>/<store>"
};

struct Pool {
  std::vector<workload::Trace> traces;
  std::vector<Input> inputs;
};

Pool make_pool(Tracer& tracer) {
  Pool pool;
  for (const workload::WorkloadSpec& spec : workload::paper_suite()) {
    Scope s(tracer, "workload.generate", 0);
    pool.traces.push_back(workload::Trace::generate(spec));
  }
  for (std::size_t t = 0; t < pool.traces.size(); ++t) {
    for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
      pool.inputs.push_back({t, store,
                             pool.traces[t].name() + "/" +
                                 std::string(kvstore::to_string(store))});
    }
  }
  return pool;
}

struct SetUp {
  double median_s = 0.0;  ///< one build, as measured
  double slowdown = 0.0;  ///< of the reference bursts between builds
};

/// Builds the pool kSetupRepeats times, keeping the last.
SetUp set_up(Pool& pool, Tracer& tracer) {
  std::vector<double> seconds;
  std::vector<double> bursts;
  for (int i = 0; i < kSetupRepeats; ++i) {
    pool = Pool{};  // one pool at a time, so peak RSS holds one
    const Clock::time_point t0 = Clock::now();
    pool = make_pool(tracer);
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
    for (int b = 0; b < kSetupBursts; ++b) {
      bursts.push_back(reference_burst_ms());
    }
  }
  std::printf("set-up: median of %d, %.4f-%.4f s\n", kSetupRepeats,
              *std::min_element(seconds.begin(), seconds.end()),
              *std::max_element(seconds.begin(), seconds.end()));
  return {median(seconds), slowdown(bursts)};
}

/// What one operation reports back to the loop. A wrong output still
/// completes; the Expectations tally it.
struct OpResult {
  bool ok = false;  ///< completed without an error
  double ms = 0.0;
  std::size_t cells = 0;
};

struct Loop {
  std::vector<double> latency_ms;
  std::vector<double> traced_ms;    ///< traced run: even-numbered ops
  std::vector<double> untraced_ms;  ///< traced run: odd-numbered ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t cells = 0;
  double wall_s = 0.0;  ///< the timed phase without the reference bursts
  std::vector<double> burst_ms;
};

/// Runs whole rounds, each a seeded permutation of the pool's inputs,
/// until `seconds` have passed (to within half a round) and at least
/// `min_ops` operations completed, or one failed. In a traced run every
/// other operation is traced, so traced and untraced ones share the same
/// conditions. `bursts` reference bursts run before each operation,
/// outside its time and the wall time.
template <typename Op>
Loop closed_loop(const Pool& pool, const Options& opt, std::size_t min_ops,
                 int bursts, Op op) {
  Rng rng(opt.seed);
  Loop loop;
  double burst_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 1;; ++round) {
    for (const std::size_t i : permutation(pool.inputs.size(), rng)) {
      const Clock::time_point b0 = Clock::now();
      for (int b = 0; b < bursts; ++b) {
        loop.burst_ms.push_back(reference_burst_ms());
      }
      burst_s += ms_between(b0, Clock::now()) / 1e3;
      const bool traced = opt.trace && loop.attempted % 2 == 0;
      ++loop.attempted;
      const OpResult r = op(pool.inputs[i], traced, loop.attempted);
      if (!r.ok) {
        ++loop.failed;
        continue;
      }
      loop.cells += r.cells;
      loop.latency_ms.push_back(r.ms);
      if (opt.trace) {
        (traced ? loop.traced_ms : loop.untraced_ms).push_back(r.ms);
      }
    }
    const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
    loop.wall_s = elapsed_s - burst_s;
    const double round_s = elapsed_s / static_cast<double>(round);
    if ((loop.latency_ms.size() >= min_ops || loop.failed > 0) &&
        elapsed_s + 0.5 * round_s >= static_cast<double>(opt.seconds)) {
      return loop;
    }
  }
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

/// End-to-end numbers both closed loops share, scaled to the reference
/// kernel's nominal speed. Nothing here can fail legitimately (no
/// admission limit, no deadline), so one failed operation fails the run.
void fill_end_to_end(Outcome& out, const Loop& loop, const SetUp& setup,
                     double tail_q, double requests_per_cell,
                     const char* name) {
  if (loop.failed > 0) {
    throw std::runtime_error("output check: " + std::to_string(loop.failed) +
                             " of " + std::to_string(loop.attempted) + " " +
                             name + " operations failed");
  }
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  const Tail t = tail(loop.latency_ms, tail_q);
  const double p50 = median(loop.latency_ms);
  const double sim = static_cast<double>(loop.cells) * requests_per_cell /
                     loop.wall_s / 1e6;
  const double host = slowdown(loop.burst_ms);
  out.end_to_end["setup_s"] = setup.median_s / setup.slowdown;
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
  out.end_to_end["p50_ms"] = p50 / host;
  out.end_to_end["tail_ms"] = t.value / host;
  out.end_to_end["sim_mreq_per_s"] = sim * host;
  out.end_to_end["ok_ratio"] =
      static_cast<double>(loop.attempted - loop.failed) /
      static_cast<double>(loop.attempted);
  out.layers["host.slowdown"] = host;
  std::printf("%s: %llu ops in %.2f s, tail_ms is the %s\n", name,
              static_cast<unsigned long long>(loop.attempted), loop.wall_s,
              describe(t).c_str());
  std::printf("host: slowdown %.3f over %zu bursts (set-up %.3f); as "
              "measured: setup_s %.4f, p50_ms %.2f, tail_ms %.2f, "
              "sim_mreq_per_s %.3f\n",
              host, loop.burst_ms.size(), setup.slowdown, setup.median_s, p50,
              t.value, sim);
  if (!loop.traced_ms.empty() && !loop.untraced_ms.empty()) {
    out.layers["trace.overhead_pct"] =
        (median(loop.traced_ms) / median(loop.untraced_ms) - 1.0) * 100.0;
  }
}

/// Per-layer medians (and the measure tail) from the traced ops' spans.
void fill_stage_layers(Outcome& out, const std::vector<Span>& spans,
                       const std::vector<double>& busy) {
  const auto p50 = [&](const char* name) {
    return median_or_zero(durations_ms(spans, name));
  };
  out.layers["workload.generate_ms"] = p50("workload.generate");
  out.layers["core.session_ms"] = p50("core.session");
  out.layers["core.characterize_ms"] = p50("core.characterize");
  out.layers["core.estimate_ms"] = p50("core.estimate");
  out.layers["core.advise_ms"] = p50("core.advise");
  const std::vector<double> measure = durations_ms(spans, "core.measure");
  if (!measure.empty()) {
    out.layers["core.measure_p50_ms"] = median(measure);
    const double q = highest_supported_quantile(measure.size());
    if (q > 0.0) {
      const Tail t = tail(measure, q);
      out.layers["core.measure_tail_ms"] = t.value;
      std::printf("core.measure_tail_ms is the %s\n", describe(t).c_str());
    }
  }
  if (!busy.empty()) out.layers["core.measure_busy_threads"] = median(busy);
}

/// Spans and a busy-thread sample around Session::measure().
void traced_measure(core::Session& session, Tracer& tracer, std::uint64_t op,
                    std::uint64_t parent, std::vector<double>& busy) {
  Scope s(tracer, "core.measure", op, parent);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  session.measure();
  const double wall_s = ms_between(t0, Clock::now()) / 1e3;
  if (wall_s > 0.0) busy.push_back((process_cpu_seconds() - cpu0) / wall_s);
}

// ---- consult -------------------------------------------------------------

core::SessionConfig consult_config(kvstore::StoreKind store) {
  core::SessionConfig sc;  // no cache_dir: every consultation is cold
  sc.mnemo.store = store;
  sc.mnemo.repeats = kRepeats;
  sc.mnemo.threads = kConsultWorkers;
  return sc;
}

/// One cold consultation: a fresh Session whose report() runs
/// characterize -> measure -> estimate -> advise -> report. Traced, the
/// same stages are pulled one at a time inside spans.
OpResult consult_once(const Pool& pool, const Input& in, Context& ctx,
                      bool traced, std::uint64_t op,
                      std::vector<double>& busy) {
  OpResult r;
  try {
    Tracer& tr = traced ? ctx.tracer : untraced();
    const Clock::time_point t0 = Clock::now();
    std::optional<core::Session> session;
    if (!traced) {
      session.emplace(pool.traces[in.trace], consult_config(in.store));
      session->report();
    } else {
      Scope root(tr, "consult", op);
      {
        Scope s(tr, "core.session", op, root.id());
        session.emplace(pool.traces[in.trace], consult_config(in.store));
      }
      {
        Scope s(tr, "core.characterize", op, root.id());
        session->characterize();
      }
      traced_measure(*session, tr, op, root.id(), busy);
      {
        Scope s(tr, "core.estimate", op, root.id());
        session->estimate();
      }
      {
        Scope s(tr, "core.advise", op, root.id());
        session->advise();
      }
      Scope s(tr, "core.report", op, root.id());
      session->report();
    }
    r.ms = ms_between(t0, Clock::now());
    const core::ReportArtifact& rep = session->report();
    ctx.expect.check("consult/" + in.key,
                     Digest().add(rep.text).add(rep.csv).hex());
    r.ok = true;
    r.cells = session->campaign_cells_run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "consult %s failed: %s\n", in.key.c_str(), e.what());
  }
  return r;
}

// ---- sweep ---------------------------------------------------------------

/// What one sweep leaves behind for the output check and the traced
/// run's follower-cost probe.
struct SweepFacts {
  std::vector<double> thr_err_pct;  ///< |(measured - estimate)/measured|
  std::vector<double> llc_hit_rate;
  std::vector<std::uint64_t> order;
  core::EstimatePoint mid;  ///< the curve's midpoint
};

core::MnemoConfig sweep_config(kvstore::StoreKind store, int repeats) {
  core::MnemoConfig cfg;
  cfg.store = store;
  cfg.repeats = repeats;
  cfg.threads = 1;  // the serial path: one worker, no scheduler
  return cfg;
}

/// The Fig 5/8 validation flow: profile through a Session, then replay
/// nine placements along the curve as one {placement x repeat} grid.
OpResult sweep_once(const Pool& pool, const Input& in, Context& ctx,
                    bool traced, std::uint64_t op, std::vector<double>& busy,
                    SweepFacts& facts) {
  OpResult r;
  try {
    Tracer& tr = traced ? ctx.tracer : untraced();
    const workload::Trace& trace = pool.traces[in.trace];
    const core::MnemoConfig cfg = sweep_config(in.store, kRepeats);
    const Clock::time_point t0 = Clock::now();
    Scope root(tr, "sweep", op);
    std::optional<core::Session> session;
    {
      Scope s(tr, "core.session", op, root.id());
      core::SessionConfig sc;  // no cache_dir: every sweep is cold
      sc.mnemo = cfg;
      session.emplace(trace, std::move(sc));
    }
    {
      Scope profile(tr, "core.profile", op, root.id());
      {
        Scope s(tr, "core.characterize", op, profile.id());
        session->characterize();
      }
      if (traced) {
        traced_measure(*session, tr, op, profile.id(), busy);
      } else {
        session->measure();
      }
      {
        Scope s(tr, "core.estimate", op, profile.id());
        session->estimate();
      }
      Scope s(tr, "core.advise", op, profile.id());
      session->advise();
    }
    const std::vector<std::uint64_t>& order = session->characterize().order;
    const std::vector<core::EstimatePoint>& curve =
        session->estimate().curve.points;
    const core::Mnemo mnemo(cfg);
    std::vector<hybridmem::Placement> placements;
    std::vector<const core::EstimatePoint*> points;
    for (const double f : kFractions) {
      points.push_back(&curve[static_cast<std::size_t>(
          f * static_cast<double>(curve.size() - 1))]);
      placements.push_back(
          core::PlacementEngine::placement_for(order, *points.back()));
    }
    std::vector<core::RunMeasurement> measured;
    {
      Scope s(tr, "core.validate", op, root.id());
      core::CampaignRunner runner(1);
      measured = runner.measure_grid(mnemo.sensitivity(), trace, placements);
    }
    r.ms = ms_between(t0, Clock::now());

    Digest d;
    facts.thr_err_pct.clear();
    facts.llc_hit_rate.clear();
    for (std::size_t i = 0; i < measured.size(); ++i) {
      const core::EstimatePoint& p = *points[i];
      const core::RunMeasurement& m = measured[i];
      d.add(static_cast<std::uint64_t>(p.fast_keys))
          .add(p.est_throughput_ops)
          .add(p.est_avg_latency_ns)
          .add(m.throughput_ops)
          .add(m.avg_latency_ns)
          .add(m.p95_ns)
          .add(m.p99_ns)
          .add(m.llc_hit_rate);
      facts.thr_err_pct.push_back(std::fabs(
          (m.throughput_ops - p.est_throughput_ops) / m.throughput_ops * 100));
      facts.llc_hit_rate.push_back(m.llc_hit_rate);
    }
    facts.order = order;
    facts.mid = curve[curve.size() / 2];
    ctx.expect.check("sweep/" + in.key, d.hex());
    r.ok = true;
    r.cells = session->campaign_cells_run() + placements.size() * kRepeats;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep %s failed: %s\n", in.key.c_str(), e.what());
  }
  return r;
}

/// Cost of a repeat sibling relative to a full replay: Mnemo::validate of
/// one placement at one worker with repeats 3 against repeats 1,
/// (t3 - t1) / (2 t1), summed over every input's curve midpoint.
double follower_cost_ratio(const Pool& pool,
                           const std::vector<SweepFacts>& facts) {
  double t1 = 0.0;
  double t3 = 0.0;
  for (std::size_t i = 0; i < pool.inputs.size(); ++i) {
    const Input& in = pool.inputs[i];
    const workload::Trace& trace = pool.traces[in.trace];
    for (const int repeats : {1, 3}) {
      const core::Mnemo mnemo(sweep_config(in.store, repeats));
      const Clock::time_point t0 = Clock::now();
      (void)mnemo.validate(trace, facts[i].order, facts[i].mid);
      (repeats == 1 ? t1 : t3) += ms_between(t0, Clock::now());
    }
  }
  return (t3 - t1) / (2.0 * t1);
}

}  // namespace

Outcome run_consult(Context& ctx) {
  Pool pool;
  const SetUp setup = set_up(pool, ctx.tracer);
  std::vector<double> busy;
  const Loop loop = closed_loop(
      pool, ctx.opt, min_samples_for(kConsultTail), kConsultBursts,
      [&](const Input& in, bool traced, std::uint64_t op) {
        return consult_once(pool, in, ctx, traced, op, busy);
      });

  Outcome out;
  fill_end_to_end(out, loop, setup, kConsultTail,
                  static_cast<double>(pool.traces[0].requests().size()),
                  "consult");
  if (ctx.opt.trace) {
    const std::vector<Span> spans = ctx.tracer.spans();
    fill_stage_layers(out, spans, busy);
    out.layers["core.report_ms"] =
        median_or_zero(durations_ms(spans, "core.report"));
    out.layers["core.cells"] = static_cast<double>(loop.cells) /
                               static_cast<double>(loop.latency_ms.size());
  }
  return out;
}

Outcome run_sweep(Context& ctx) {
  Pool pool;
  const SetUp setup = set_up(pool, ctx.tracer);
  std::vector<double> busy;
  std::vector<SweepFacts> facts(pool.inputs.size());
  const Loop loop = closed_loop(
      pool, ctx.opt, min_samples_for(kSweepTail), kSweepBursts,
      [&](const Input& in, bool traced, std::uint64_t op) {
        const auto i = static_cast<std::size_t>(&in - pool.inputs.data());
        return sweep_once(pool, in, ctx, traced, op, busy, facts[i]);
      });

  Outcome out;
  fill_end_to_end(out, loop, setup, kSweepTail,
                  static_cast<double>(pool.traces[0].requests().size()),
                  "sweep");
  // Every input's outputs are deterministic, so these come from one copy
  // of each and repeat exactly across runs.
  std::vector<double> thr_err;
  std::vector<double> llc;
  for (const SweepFacts& f : facts) {
    thr_err.insert(thr_err.end(), f.thr_err_pct.begin(), f.thr_err_pct.end());
    llc.insert(llc.end(), f.llc_hit_rate.begin(), f.llc_hit_rate.end());
  }
  const double thr_err_median = median(thr_err);
  if (!(thr_err_median <= kMaxThrErrPct)) {
    std::fprintf(stderr,
                 "output check: median |throughput estimate error| %.4f%% "
                 "exceeds the Fig 8a bound %.1f%%\n",
                 thr_err_median, kMaxThrErrPct);
  }
  out.correct = thr_err_median <= kMaxThrErrPct;
  std::printf("sweep: median |throughput estimate error| %.4f%% (Fig 8a "
              "bound %.1f%%)\n",
              thr_err_median, kMaxThrErrPct);
  if (ctx.opt.trace) {
    const std::vector<Span> spans = ctx.tracer.spans();
    fill_stage_layers(out, spans, busy);
    const std::vector<double> validate = durations_ms(spans, "core.validate");
    out.layers["core.profile_ms"] =
        median_or_zero(durations_ms(spans, "core.profile"));
    out.layers["core.validate_ms"] = median_or_zero(validate);
    out.layers["core.cell_ms"] =
        median_or_zero(validate) / static_cast<double>(kValidateCells);
    out.layers["core.cells"] = static_cast<double>(loop.cells) /
                               static_cast<double>(loop.latency_ms.size());
    out.layers["core.thr_err_median_pct"] = thr_err_median;
    double llc_sum = 0.0;
    for (const double x : llc) llc_sum += x;
    out.layers["hybridmem.llc_hit_rate"] =
        llc_sum / static_cast<double>(llc.size());
    out.layers["core.follower_cost_ratio"] = follower_cost_ratio(pool, facts);
  }
  return out;
}

void record_consult(Expectations& expect) {
  const Options opt;
  Context ctx{opt, untraced(), expect};
  const Pool pool = make_pool(untraced());
  std::vector<double> busy;
  for (const Input& in : pool.inputs) {
    consult_once(pool, in, ctx, false, 0, busy);
  }
}

void record_sweep(Expectations& expect) {
  const Options opt;
  Context ctx{opt, untraced(), expect};
  const Pool pool = make_pool(untraced());
  std::vector<double> busy;
  SweepFacts facts;
  for (const Input& in : pool.inputs) {
    sweep_once(pool, in, ctx, false, 0, busy, facts);
  }
}

}  // namespace e2e
