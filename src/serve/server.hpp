#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/session.hpp"
#include "serve/protocol.hpp"
#include "serve/single_flight.hpp"
#include "util/cancel.hpp"
#include "util/task_scheduler.hpp"

namespace mnemo::serve {

/// Tuning of one Server instance.
struct ServeOptions {
  /// Workers of the global task scheduler (0 = hardware concurrency).
  /// Requests do not own workers: every request's campaign cells
  /// interleave with every other's on this one pool, so a small request
  /// overtakes a big one mid-grid instead of queueing behind it. Results
  /// are bit-identical at any count (DESIGN.md §6).
  std::size_t threads = 0;
  /// Bound on requests admitted but not yet answered. Submissions beyond
  /// it are refused immediately with a typed `overloaded` error instead
  /// of queueing without bound (backpressure).
  std::size_t queue_capacity = 64;
  /// Artifact-store directory every request's session opens (empty = no
  /// disk cache; the in-memory single-flight memo still applies).
  std::string cache_dir;
  bool use_cache = true;
  /// Deadline applied to requests that do not carry their own
  /// `deadline_ms`; 0 = no default (requests without a deadline run to
  /// completion). The clock starts at admission, so queue wait counts —
  /// a request stuck behind a saturated scheduler times out like any
  /// other.
  std::uint64_t default_deadline_ms = 0;
  /// Run ArtifactStore::fsck over cache_dir before serving (crash
  /// recovery): torn or foreign files are quarantined so a damaged cache
  /// degrades to cache misses instead of poisoning responses. Skipped when
  /// use_cache is false: that server never opens the dir.
  bool fsck_on_start = true;
  /// Test seam: runs on the scheduler thread just before a request is
  /// handled. Lets tests hold workers to make queue pressure
  /// deterministic. Not called for refused (overloaded) or unparseable
  /// requests.
  std::function<void(const Request&)> on_request;
};

/// The server's own ledger, returned by the `stats` op and printed on
/// shutdown. Counters cover the whole server lifetime.
struct ServeStats {
  std::uint64_t requests = 0;       ///< lines submitted (incl. refused)
  std::uint64_t ok = 0;             ///< successful responses
  std::uint64_t errors = 0;         ///< failed responses (excl. parse/overload)
  std::uint64_t parse_errors = 0;   ///< lines that did not parse
  std::uint64_t overloaded = 0;     ///< refused by backpressure
  std::uint64_t measure_leads = 0;  ///< campaigns actually replayed
  std::uint64_t measure_memo_hits = 0;   ///< measure served from the memo
  std::uint64_t single_flight_joins = 0; ///< parked on an in-flight leader
  std::uint64_t queue_depth_hwm = 0;     ///< max in-service requests seen
  std::uint64_t deadline_hits = 0;  ///< requests answered deadline_exceeded
  std::uint64_t canceled = 0;       ///< requests canceled for other reasons
  std::uint64_t disconnects = 0;    ///< clients that vanished mid-stream
  std::uint64_t cells_run = 0;      ///< campaign cells executed by requests
  std::uint64_t trace_memo_hits = 0;  ///< traces served from the memo
  double queue_ms_total = 0.0;      ///< summed admission -> start waits
  double run_ms_total = 0.0;        ///< summed start -> settle times

  [[nodiscard]] std::string render() const;
};

/// The concurrent consultant as a scheduler-driven state machine: every
/// submitted request becomes a task group on one global TaskScheduler,
/// its campaign cells interleaving with every other request's under
/// deadline-aware round-robin dispatch. No request owns a worker —
/// drivers run as short scheduler tasks, single-flight joiners park as
/// continuations (zero threads blocked), and deadlines live in the
/// scheduler's own timer queue. Every response's answer text is produced
/// by the same core::render_* functions the CLI subcommands use, so a
/// serve response is bit-identical to the single-client CLI answer for
/// the same configuration. Destruction drains: admitted requests settle
/// before the scheduler joins (graceful shutdown).
class Server {
 public:
  explicit Server(ServeOptions options);
  /// Waits until every admitted request has settled, then joins the
  /// scheduler's workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parse one line and enqueue it as a scheduler task group. Parse
  /// failures and backpressure refusals yield an immediately ready
  /// future, so every submitted line produces exactly one response
  /// either way. A request whose deadline lapses answers a typed
  /// deadline_exceeded error at its next cancellation point — the one
  /// settle path; the deadline timer only cancels, it never fabricates a
  /// response.
  [[nodiscard]] std::future<std::string> submit_line(std::string line);

  /// Run the line protocol over a stream pair until EOF: one JSON object
  /// per input line, one response line per request, *in arrival order*
  /// regardless of completion order — a transcript is byte-stable at any
  /// worker count. Returns after every admitted request has been
  /// answered and written (graceful drain).
  void serve_stream(std::istream& in, std::ostream& out);

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }
  /// The global scheduler (test introspection: timer queue, threads).
  [[nodiscard]] util::TaskScheduler& scheduler() noexcept {
    return scheduler_;
  }

 private:
  /// One admitted asynchronous request: the group its tasks run under,
  /// the deadline plumbing, the session being driven, and the promise
  /// that settles exactly once. Tasks of a request run one at a time
  /// (each continuation submits the next), so the mutable state needs no
  /// lock of its own.
  struct RequestCtx;

  /// State-machine steps, each running as a kRequest scheduler task.
  void start_request(const std::shared_ptr<RequestCtx>& ctx);
  void resolve_measure_async(const std::shared_ptr<RequestCtx>& ctx);
  void finish(const std::shared_ptr<RequestCtx>& ctx);
  void settle(const std::shared_ptr<RequestCtx>& ctx, Response resp);

  /// The request's trace and its key. A Table III workload at its
  /// default spec (no keys, requests or seed given) comes from the trace
  /// memo, generated outside the lock on its first use; any other spec is
  /// generated afresh and not kept. Two concurrent first uses of one
  /// workload may both generate; the memo keeps the first.
  [[nodiscard]] core::KeyedTrace keyed_trace(const Request& request);
  [[nodiscard]] core::SessionConfig make_session_config(
      const Request& request, util::CancelToken* cancel);
  void render_answer(const Request& request, core::Session& session,
                     Response& resp);
  void account(Response& resp, const Request& request, double queue_ms,
               double run_ms, std::uint64_t cells);

  ServeOptions options_;
  MeasureCache measures_;

  mutable std::mutex mu_;  ///< guards stats_, pending_ and the trace memo
  std::condition_variable drain_cv_;  ///< pending_ -> 0 (destructor)
  ServeStats stats_;
  std::size_t pending_ = 0;  ///< admitted, not yet settled
  /// The trace memo: the Table III workloads' default-spec traces, by
  /// workload name. At most five entries, so bounded by construction.
  std::map<std::string, core::KeyedTrace> default_traces_;

  /// Declared last: destroyed first, draining outstanding tasks while
  /// the members above are still alive for them to use. Also hosts the
  /// deadline timer queue (the former watchdog thread).
  util::TaskScheduler scheduler_;
};

}  // namespace mnemo::serve
