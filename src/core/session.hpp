#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/artifacts.hpp"
#include "core/mnemo.hpp"
#include "workload/trace.hpp"

namespace mnemo::core {

/// Configuration of a pipeline session: the Mnemo knobs plus the caching
/// policy. `cache_dir` empty (the default) runs everything in memory.
struct SessionConfig {
  MnemoConfig mnemo;
  /// Directory of the content-addressed artifact store; empty = no cache.
  std::string cache_dir;
  /// --no-cache: keep the directory configured but bypass it entirely.
  bool use_cache = true;
  /// Scenario 2b (ordering == kExternal): the externally produced tiering
  /// order. Required iff the ordering policy is kExternal.
  std::optional<std::vector<std::uint64_t>> external_order;
};

/// One cache decision of a session run — the --explain-cache ledger
/// entry: how a stage was satisfied, or a stored file its probe turned
/// away (`rejected`; the stage then recomputes and gets its own entry).
struct StageTrace {
  std::string stage;
  std::string key;      ///< content hash addressing the stage's artifact
  bool from_cache = false;
  bool saved = false;   ///< written back to the store this run
  bool joined = false;  ///< adopted from another session's in-flight work
  LoadMiss rejected;    ///< reason kNone unless this records a rejection
};

/// A workload trace and its content key (DESIGN.md §9), hashed once: the
/// only constructor hashes the trace it takes, so a key can never disagree
/// with its trace. Immutable and cheap to copy — copies share one trace —
/// so a server can keep one per workload spec and build every session on
/// that spec from it without regenerating or rehashing anything.
class KeyedTrace {
 public:
  explicit KeyedTrace(workload::Trace trace);

  [[nodiscard]] const workload::Trace& trace() const noexcept {
    return *trace_;
  }
  [[nodiscard]] const std::string& key() const noexcept { return key_; }

 private:
  std::shared_ptr<const workload::Trace> trace_;
  std::string key_;
};

/// The consultant as an explicit staged pipeline:
///
///   characterize -> measure -> estimate -> advise -> report
///
/// Each stage is lazy and memoized: asking for report() pulls exactly the
/// stages it needs, and each stage first consults the ArtifactStore under
/// a content hash of everything its output depends on. The measure stage
/// — the only one that touches the emulator — keys on the materialized
/// trace bytes, the store kind, the platform constants, the campaign grid
/// shape (repeats, seed) and the fault plan; NOT on the thread count
/// (results are bit-identical at any count, DESIGN.md §6)
/// and NOT on presentation knobs like the fail policy. Downstream keys
/// chain on their upstream keys, so changing the SLO or the price factor
/// re-runs only the cheap analytic stages against a warm grid: a second
/// advise never touches the emulator (campaign_cells_run() == 0).
///
/// Degraded results never enter the store: a measure artifact with
/// quarantined cells is recomputed every run, so a cache can never launder
/// a faulted grid into a clean one.
class Session {
 public:
  Session(KeyedTrace trace, SessionConfig config);
  Session(workload::Trace trace, SessionConfig config);

  /// Stage accessors: compute (or load) on first use, memoized after.
  const CharacterizeArtifact& characterize();
  const MeasureArtifact& measure();
  const EstimateArtifact& estimate();
  const AdviseArtifact& advise();
  const ReportArtifact& report();

  /// Re-query against the same grid: drops only the downstream memos, so
  /// the next advise()/report() reuses the measured baselines in place.
  void set_slo(double slo_slowdown);
  void set_price(double price_factor);

  /// Whether the measure stage has already been materialized (loaded,
  /// computed, or adopted) — the single-flight dispatcher's probe.
  [[nodiscard]] bool measured() const noexcept {
    return measure_.has_value();
  }

  /// Single-flight join: install a measure artifact computed by another
  /// session with the identical measure key, instead of replaying the
  /// grid here. The artifact must be clean (never adopt a degraded or
  /// partial grid) and the stage must not have been materialized yet.
  /// Recorded in the stage trace as "joined".
  void adopt_measure(MeasureArtifact measure);

  /// Continuation-based measure() for the serve scheduler: memo hits,
  /// cancellation, and disk-cache hits settle inline; otherwise the
  /// campaign's cells are submitted to `group` and `done` runs later as a
  /// scheduler task — no thread blocks on the grid. `done(error)` carries
  /// the exception measure() would have thrown (null on success, after
  /// which measured() is true). Exactly-once. The session must outlive
  /// `done`; results are bit-identical to measure() at any worker count.
  void measure_async(std::shared_ptr<util::TaskScheduler::Group> group,
                     std::function<void(std::exception_ptr)> done);

  /// Emulator campaign cells this session actually executed — 0 on a
  /// fully warm run (the incremental-rerun acceptance criterion).
  [[nodiscard]] std::size_t campaign_cells_run() const noexcept {
    return cells_run_;
  }

  /// The per-stage cache keys (computed on demand; stable across runs).
  [[nodiscard]] std::string trace_key() const;
  [[nodiscard]] std::string characterize_key() const;
  [[nodiscard]] std::string measure_key() const;
  [[nodiscard]] std::string estimate_key() const;
  [[nodiscard]] std::string advise_key() const;
  [[nodiscard]] std::string report_key() const;

  /// Every cache decision of this session so far, in order: the stages
  /// as they were satisfied, and the stored files their probes rejected.
  /// The only record of them — the store keeps none.
  [[nodiscard]] const std::vector<StageTrace>& stage_traces() const noexcept {
    return traces_;
  }
  [[nodiscard]] std::string explain_cache() const;

  /// The legacy one-shot report shape (Mnemo::profile's return type),
  /// assembled from the staged artifacts.
  [[nodiscard]] MnemoReport to_report();

  [[nodiscard]] const SessionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const workload::Trace& trace() const noexcept {
    return trace_.trace();
  }

 private:
  [[nodiscard]] OrderingPolicy effective_ordering() const;
  [[nodiscard]] bool cache_on() const noexcept {
    return config_.use_cache && store_.enabled();
  }
  /// Cells of this session's measure grid: {Fast, Slow} × repeats.
  [[nodiscard]] std::size_t grid_cells() const noexcept {
    return 2 * static_cast<std::size_t>(config_.mnemo.repeats);
  }

  /// Stage entry, the same for every stage: true when `memo` holds the
  /// stage's artifact. A memo hit costs nothing and is returned even past
  /// a deadline; otherwise cancellation is checked before any new work —
  /// not even a disk load starts for a canceled request — and then the
  /// store is tried under `(this->*key)()`. A hit, or a file the load
  /// rejected, is recorded in the stage trace; a stored artifact that
  /// `accept` (when given) turns away is a silent miss.
  template <typename A>
  bool probe(std::optional<A>& memo, std::string (Session::*key)() const,
             bool (*accept)(const A&) = nullptr);

  /// Stage exit, the same for every stage: save `a` under `key` only when
  /// it is `clean` (a degraded result never enters the store), memoize it
  /// and record the stage trace.
  template <typename A>
  const A& install(std::optional<A>& memo, const std::string& key, A a,
                   bool clean);

  /// The measure stage's exit from a checked baseline grid, whichever
  /// grid entry (sync or async) produced it.
  const MeasureArtifact& install_measured_grid(CampaignResult grid);
  void trace_stage(std::string_view stage, const std::string& key,
                   bool from_cache, bool saved, bool joined = false);

  KeyedTrace trace_;
  SessionConfig config_;
  ArtifactStore store_;  ///< opened on config_.cache_dir

  std::optional<CharacterizeArtifact> characterize_;
  std::optional<MeasureArtifact> measure_;
  std::optional<EstimateArtifact> estimate_;
  std::optional<AdviseArtifact> advise_;
  std::optional<ReportArtifact> report_;

  std::size_t cells_run_ = 0;
  std::vector<StageTrace> traces_;
};

}  // namespace mnemo::core
