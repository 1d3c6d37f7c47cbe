#include "serve/server.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <iomanip>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/render.hpp"
#include "core/session.hpp"
#include "kvstore/service_profile.hpp"
#include "serve/json.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "workload/suite.hpp"

namespace mnemo::serve {

namespace {

/// The one exception -> typed response mapping of every request step.
/// Must be called from inside a catch block.
Response response_for_exception(const Request& request) {
  try {
    throw;
  } catch (const util::CanceledError& e) {
    // The one settle path for a deadlined/canceled request: the request
    // reaches a cancellation point and answers typed. Nothing partial
    // was published (the session never caches a canceled stage) and the
    // completed cells before the cut stayed deterministic.
    return error_response(request.id, request.op, e.error());
  } catch (const std::invalid_argument& e) {
    return error_response(
        request.id, request.op,
        util::Error{util::ErrorCode::kInvalidArgument, e.what()});
  } catch (const std::exception& e) {
    return error_response(
        request.id, request.op,
        util::Error{util::ErrorCode::kFailedPrecondition, e.what()});
  }
}

[[nodiscard]] double ms_between(std::chrono::steady_clock::time_point from,
                                std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

std::string ServeStats::render() const {
  std::ostringstream out;
  out << "serve stats\n"
      << "  requests            " << requests << "\n"
      << "  ok                  " << ok << "\n"
      << "  errors              " << errors << "\n"
      << "  parse errors        " << parse_errors << "\n"
      << "  overloaded          " << overloaded << "\n"
      << "  measure leads       " << measure_leads << "\n"
      << "  measure memo hits   " << measure_memo_hits << "\n"
      << "  single-flight joins " << single_flight_joins << "\n"
      << "  queue depth (hwm)   " << queue_depth_hwm << "\n"
      << "  deadline exceeded   " << deadline_hits << "\n"
      << "  canceled            " << canceled << "\n"
      << "  dropped connections " << disconnects << "\n"
      << "  cells run           " << cells_run << "\n"
      << "  trace memo hits     " << trace_memo_hits << "\n"
      << std::fixed << std::setprecision(1)
      << "  queue wait ms (sum) " << queue_ms_total << "\n"
      << "  run time ms (sum)   " << run_ms_total << "\n";
  return out.str();
}

/// One admitted asynchronous request. Its lifecycle is a chain of
/// kRequest scheduler tasks (start -> resolve -> finish -> settle), each
/// submitting the next, so exactly one task touches the context at a
/// time and the struct needs no lock. Kept alive by the task closures;
/// settles its promise exactly once.
struct Server::RequestCtx {
  Request req;
  /// Null when the request carries no deadline. Shared with the timer
  /// ticket (which only cancels — never settles).
  std::shared_ptr<util::CancelToken> token;
  std::shared_ptr<util::TaskScheduler::Group> group;
  util::TaskScheduler::Ticket ticket = 0;
  std::promise<std::string> promise;
  std::chrono::steady_clock::time_point admitted;
  std::chrono::steady_clock::time_point started;
  std::unique_ptr<core::Session> session;
  std::string measure_key;
  /// True once this request parked behind an in-flight leader at least
  /// once — the lease it eventually adopts counts as a join, not a memo
  /// hit.
  bool waited = false;
};

Server::Server(ServeOptions options)
    : options_(std::move(options)), scheduler_(options_.threads) {
  // Crash recovery before the first request: a cache dir damaged by a
  // previous crash (torn writes, dead writers' temps) is quarantined so
  // every key degrades to a recomputable miss, never a poisoned answer. A
  // server that bypasses the cache never reads the dir, so it leaves it
  // untouched.
  const core::ArtifactStore store(options_.cache_dir);
  if (options_.fsck_on_start && options_.use_cache && store.enabled()) {
    const core::FsckReport report = store.fsck(/*repair=*/true);
    if (!report.clean()) {
      MNEMO_LOG_WARN("serve: startup fsck repaired %s:\n%s",
                     store.dir().c_str(), report.render().c_str());
    }
  }
}

Server::~Server() {
  // Graceful drain: every admitted request settles before the scheduler
  // (declared last, destroyed first) joins its workers.
  std::unique_lock lock(mu_);
  drain_cv_.wait(lock, [this] { return pending_ == 0; });
}

core::KeyedTrace Server::keyed_trace(const Request& req) {
  // An unknown name throws std::invalid_argument: a typed
  // invalid_argument response (response_for_exception).
  workload::WorkloadSpec spec = workload::paper_workload(req.workload);
  if (req.keys > 0 || req.requests > 0 || req.seed > 0) {
    if (req.keys > 0) spec.key_count = req.keys;
    if (req.requests > 0) spec.request_count = req.requests;
    if (req.seed > 0) spec.seed = req.seed;
    return core::KeyedTrace(workload::Trace::generate(spec));
  }
  {
    std::lock_guard lock(mu_);
    const auto hit = default_traces_.find(spec.name);
    if (hit != default_traces_.end()) {
      ++stats_.trace_memo_hits;
      return hit->second;
    }
  }
  core::KeyedTrace trace(workload::Trace::generate(spec));
  std::lock_guard lock(mu_);
  return default_traces_.try_emplace(spec.name, std::move(trace))
      .first->second;
}

core::SessionConfig Server::make_session_config(const Request& request,
                                                util::CancelToken* cancel) {
  const std::optional<kvstore::StoreKind> store =
      kvstore::parse_store_kind(request.store);
  if (!store) throw std::invalid_argument("unknown store " + request.store);
  const std::optional<core::EstimateModel> model =
      core::parse_estimate_model(request.model);
  if (!model) throw std::invalid_argument("unknown model " + request.model);
  core::SessionConfig sc;
  sc.mnemo.store = *store;
  sc.mnemo.ordering = request.tiered ? core::OrderingPolicy::kTiered
                                     : core::OrderingPolicy::kTouchOrder;
  sc.mnemo.estimate_model = *model;
  sc.mnemo.price_factor = request.p;
  sc.mnemo.slo_slowdown = request.slo;
  sc.mnemo.repeats = static_cast<int>(request.repeats);
  // Cells fan out on the one global scheduler: concurrency is shared
  // across requests, not owned per request, and campaign results are
  // thread-count-invariant (DESIGN.md §6).
  sc.mnemo.threads = scheduler_.threads();
  sc.mnemo.cancel = cancel;
  sc.cache_dir = options_.cache_dir;
  sc.use_cache = options_.use_cache;
  return sc;
}

void Server::render_answer(const Request& request, core::Session& session,
                           Response& resp) {
  switch (request.op) {
    case RequestOp::kCharacterize:
      resp.output =
          core::render_characterize(session.trace(), session.characterize());
      break;
    case RequestOp::kMeasure:
      resp.output = core::render_measure(session.measure());
      break;
    case RequestOp::kAdvise:
      resp.output = core::render_advise(session.measure(), session.advise());
      break;
    case RequestOp::kReport:
      resp.output = session.report().text;
      resp.csv = session.report().csv;
      break;
    case RequestOp::kStats:
      break;  // answered before a session exists
  }
  resp.ok = true;
}

void Server::account(Response& resp, const Request& request, double queue_ms,
                     double run_ms, std::uint64_t cells) {
  if (request.timing) {
    resp.timing = true;
    resp.queue_ms = queue_ms;
    resp.run_ms = run_ms;
    resp.cells_run = cells;
  }
  std::lock_guard lock(mu_);
  stats_.queue_ms_total += queue_ms;
  stats_.run_ms_total += run_ms;
  stats_.cells_run += cells;
  // The ledger op reports the counters without perturbing them.
  if (request.op == RequestOp::kStats) return;
  if (resp.ok) {
    ++stats_.ok;
  } else {
    ++stats_.errors;
    if (resp.error_code ==
        util::to_string(util::ErrorCode::kDeadlineExceeded)) {
      ++stats_.deadline_hits;
    } else if (resp.error_code ==
               util::to_string(util::ErrorCode::kCanceled)) {
      ++stats_.canceled;
    }
  }
}

void Server::start_request(const std::shared_ptr<RequestCtx>& ctx) {
  ctx->started = std::chrono::steady_clock::now();
  try {
    if (options_.on_request) options_.on_request(ctx->req);
    if (ctx->req.op == RequestOp::kStats) {
      Response resp;
      resp.id = ctx->req.id;
      resp.op = ctx->req.op;
      resp.ok = true;
      resp.output = stats().render();
      settle(ctx, std::move(resp));
      return;
    }
    ctx->session = std::make_unique<core::Session>(
        keyed_trace(ctx->req),
        make_session_config(ctx->req, ctx->token.get()));
    if (ctx->req.op == RequestOp::kCharacterize) {
      finish(ctx);
      return;
    }
    resolve_measure_async(ctx);
  } catch (...) {
    settle(ctx, response_for_exception(ctx->req));
  }
}

void Server::resolve_measure_async(const std::shared_ptr<RequestCtx>& ctx) {
  try {
    core::Session& session = *ctx->session;
    if (session.measured()) {
      finish(ctx);
      return;
    }
    if (ctx->measure_key.empty()) ctx->measure_key = session.measure_key();
    // Continuation-style single flight: a parked joiner occupies no
    // worker — the wake re-submits this step as a fresh task when the
    // leader publishes, abandons, or the deadline cancels the token.
    std::optional<MeasureCache::Lease> lease = measures_.try_acquire(
        ctx->measure_key, ctx->token.get(), [this, ctx] {
          ctx->group->submit(util::TaskScheduler::TaskClass::kRequest,
                             [this, ctx] { resolve_measure_async(ctx); });
        });
    if (!lease.has_value()) {
      ctx->waited = true;
      return;
    }
    if (!lease->leader) {
      session.adopt_measure(*lease->artifact);
      {
        std::lock_guard lock(mu_);
        if (ctx->waited) {
          ++stats_.single_flight_joins;
        } else {
          ++stats_.measure_memo_hits;
        }
      }
      finish(ctx);
      return;
    }
    // Leader: the campaign's cells join this request's group and fan out
    // across the scheduler; the continuation publishes (or abandons) and
    // renders. Cheap resolutions (disk hit, canceled) run it inline.
    session.measure_async(
        ctx->group, [this, ctx](std::exception_ptr error) {
          if (error != nullptr) {
            measures_.abandon(ctx->measure_key);
            try {
              std::rethrow_exception(error);
            } catch (...) {
              settle(ctx, response_for_exception(ctx->req));
            }
            return;
          }
          const core::MeasureArtifact& m = ctx->session->measure();
          // Degraded grids never enter the memo, matching the artifact
          // store's rule: a faulted campaign must not be laundered into
          // later requests.
          if (!m.degraded && m.failures.empty()) {
            measures_.publish(
                ctx->measure_key,
                std::make_shared<const core::MeasureArtifact>(m));
          } else {
            measures_.abandon(ctx->measure_key);
          }
          {
            std::lock_guard lock(mu_);
            ++stats_.measure_leads;
          }
          finish(ctx);
        });
  } catch (...) {
    settle(ctx, response_for_exception(ctx->req));
  }
}

void Server::finish(const std::shared_ptr<RequestCtx>& ctx) {
  Response resp;
  resp.id = ctx->req.id;
  resp.op = ctx->req.op;
  try {
    // The analytic stages carry their own cancellation points, so a
    // deadline that strikes after the grid still answers typed.
    render_answer(ctx->req, *ctx->session, resp);
  } catch (...) {
    resp = response_for_exception(ctx->req);
  }
  settle(ctx, std::move(resp));
}

void Server::settle(const std::shared_ptr<RequestCtx>& ctx, Response resp) {
  if (ctx->ticket != 0) scheduler_.disarm(ctx->ticket);
  const auto now = std::chrono::steady_clock::now();
  account(resp, ctx->req, ms_between(ctx->admitted, ctx->started),
          ms_between(ctx->started, now),
          ctx->session != nullptr ? ctx->session->campaign_cells_run() : 0);
  {
    std::lock_guard lock(mu_);
    MNEMO_ASSERT(pending_ > 0);
    --pending_;
  }
  drain_cv_.notify_all();
  ctx->promise.set_value(resp.to_json_line());
}

std::future<std::string> Server::submit_line(std::string line) {
  auto ready = [](Response resp) {
    std::promise<std::string> p;
    p.set_value(resp.to_json_line());
    return p.get_future();
  };

  Request req;
  try {
    req = Request::parse_line(line);
  } catch (const util::ParseError& e) {
    std::lock_guard lock(mu_);
    ++stats_.requests;
    ++stats_.parse_errors;
    return ready(parse_error_response(e));
  }

  {
    std::lock_guard lock(mu_);
    ++stats_.requests;
    if (pending_ >= options_.queue_capacity) {
      ++stats_.overloaded;
      return ready(error_response(
          req.id, req.op,
          util::Error{util::ErrorCode::kOverloaded,
                      "queue full (" +
                          std::to_string(options_.queue_capacity) +
                          " requests in service) — retry later"}));
    }
    ++pending_;
    if (pending_ > stats_.queue_depth_hwm) stats_.queue_depth_hwm = pending_;
  }

  auto ctx = std::make_shared<RequestCtx>();
  ctx->req = std::move(req);
  ctx->admitted = std::chrono::steady_clock::now();

  // Deadline plumbing: the token is shared between the request's tasks
  // (which poll it at cancellation points) and a scheduler timer ticket
  // (which cancels it when the deadline strikes). The clock starts here,
  // at admission, so time spent queued counts against the deadline — and
  // the same deadline is the group's EDF key, so the closer a request is
  // to its deadline the sooner its cells dispatch.
  const std::uint64_t deadline_ms = ctx->req.deadline_ms != 0
                                        ? ctx->req.deadline_ms
                                        : options_.default_deadline_ms;
  util::Deadline deadline;
  if (deadline_ms != 0) {
    ctx->token = std::make_shared<util::CancelToken>(
        util::Deadline::after_ms(deadline_ms));
    deadline = ctx->token->deadline();
    ctx->ticket = scheduler_.arm(
        ctx->token->deadline().when(), [token = ctx->token] {
          // Only cancels — never settles. The request produces the one
          // and only response when it reaches a cancellation point.
          token->cancel(util::CancelToken::deadline_error());
        });
  }
  ctx->group = scheduler_.make_group(deadline);

  std::future<std::string> fut = ctx->promise.get_future();
  ctx->group->submit(util::TaskScheduler::TaskClass::kRequest,
                     [this, ctx] { start_request(ctx); });
  return fut;
}

void Server::serve_stream(std::istream& in, std::ostream& out) {
  // Responses are emitted strictly in request arrival order: the reader
  // appends futures to a queue and a single writer drains it front to
  // back. Requests may finish out of order; the transcript never does.
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<std::future<std::string>> queue;
  bool done = false;

  std::thread writer([&] {
    bool sink_alive = true;
    for (;;) {
      std::future<std::string> next;
      {
        std::unique_lock lock(qmu);
        qcv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        next = std::move(queue.front());
        queue.pop_front();
      }
      if (sink_alive) {
        out << next.get() << "\n" << std::flush;
        if (!out) {
          // Client vanished mid-stream (EPIPE/ECONNRESET surfaces as a
          // failed stream). Keep draining so every admitted request
          // still completes and updates the memo/stats — just stop
          // writing into the void. The server keeps serving others.
          sink_alive = false;
          std::lock_guard lock(mu_);
          ++stats_.disconnects;
        }
      } else {
        next.get();  // drain: completion still matters, the bytes don't
      }
    }
  });

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::future<std::string> fut = submit_line(std::move(line));
    {
      std::lock_guard lock(qmu);
      queue.push_back(std::move(fut));
    }
    qcv.notify_one();
  }
  {
    std::lock_guard lock(qmu);
    done = true;
  }
  qcv.notify_one();
  writer.join();  // graceful drain: every admitted request is answered
}

ServeStats Server::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace mnemo::serve
