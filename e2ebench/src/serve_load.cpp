// serve: an open loop into one in-process serve::Server. One load thread
// sends request lines on a seeded Poisson schedule and collects the
// responses; latency counts from each request's due time.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/render.hpp"
#include "core/session.hpp"
#include "flows.hpp"
#include "kvstore/factory.hpp"
#include "serve/server.hpp"
#include "workload/suite.hpp"

namespace e2e {
namespace {

using namespace mnemo;
namespace fs = std::filesystem;

constexpr std::size_t kWorkers = 3;
constexpr std::uint32_t kRepeats = 2;  // the protocol default
/// Arrivals per second, about half the knee on the 4-core host the
/// benchmark was sized on (see README.md). Twins add 2.5% on top.
constexpr double kRate = 80.0;
constexpr double kColdShare = 0.10;
/// Every kTwinEvery-th cold request is sent twice, kTwinGapMs apart, as a
/// dashboard fan-out would: the twin should join the first's flight.
constexpr std::size_t kTwinEvery = 4;
constexpr double kTwinGapMs = 3.0;
/// Every request's latency limit.
constexpr std::uint64_t kDeadlineMs = 1000;
/// Server start + prefill (~0.5 s) is repeated; its median is the set-up
/// time.
constexpr int kSetupRepeats = 5;
/// Reference bursts timed after each set-up, while the server is idle.
constexpr int kSetupBursts = 20;
/// In the timed phase a reference burst runs when no request is in
/// flight, the next send is more than kBurstSlack away and the last burst
/// is more than kBurstEvery ago.
constexpr auto kBurstSlack = std::chrono::milliseconds(1);
constexpr auto kBurstEvery = std::chrono::milliseconds(5);
/// p99 needs 1000 samples; the schedule never has fewer.
constexpr double kServeTail = 0.99;
/// Cold answers compared byte for byte against an uncached Session.
constexpr std::size_t kColdSample = 4;
constexpr double kSlos[] = {0.05, 0.1, 0.2};
constexpr double kPrices[] = {0.2, 0.3};
constexpr const char* kOps[] = {"advise", "report"};
/// A report answer carries the whole curve CSV and costs a few ms more
/// than an advise answer. One request in four asks for a report, so the
/// median lands inside the advise mode rather than on its edge.
constexpr double kReportShare = 0.25;

struct Query {
  std::string workload;
  std::string store;
  std::string op;
  std::uint64_t seed = 0;  ///< 0 = the workload's default trace
  double slo = 0.1;
  double p = 0.2;

  [[nodiscard]] std::string key() const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "serve/%s/%s/%s/slo%g/p%g",
                  workload.c_str(), store.c_str(), op.c_str(), slo, p);
    return buf;
  }
  [[nodiscard]] std::string line(const std::string& id, bool timing) const {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":\"%s\",\"op\":\"%s\",\"workload\":\"%s\","
                  "\"store\":\"%s\",\"seed\":%llu,\"repeats\":%u,"
                  "\"slo\":%g,\"p\":%g,\"deadline_ms\":%llu%s}",
                  id.c_str(), op.c_str(), workload.c_str(), store.c_str(),
                  static_cast<unsigned long long>(seed), kRepeats, slo, p,
                  static_cast<unsigned long long>(kDeadlineMs),
                  timing ? ",\"timing\":true" : "");
    return buf;
  }
};

struct Planned {
  Query q;
  double due_ms = 0.0;
  bool cold = false;
  bool traced = false;
  std::size_t original = SIZE_MAX;  ///< duplicates: the request copied
};

/// The 15 (workload, store) keys the prefill makes warm.
std::vector<Query> warm_keys() {
  std::vector<Query> keys;
  for (const workload::WorkloadSpec& spec : workload::paper_suite()) {
    for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
      keys.push_back({spec.name, std::string(kvstore::to_string(store)),
                      "advise"});
    }
  }
  return keys;
}

/// The seeded schedule: n arrivals over span_ms, exactly kColdShare of
/// them cold with fresh trace seeds, and twins of some cold ones.
std::vector<Planned> plan(std::uint64_t seed, std::size_t n, double span_ms,
                          bool trace) {
  Rng rng(seed);
  const std::vector<Query> keys = warm_keys();
  const std::vector<double> due = poisson_schedule(n, span_ms, rng);
  const auto n_cold = static_cast<std::size_t>(kColdShare * n + 0.5);
  const std::vector<std::size_t> order = permutation(n, rng);
  std::vector<bool> cold(n, false);
  for (std::size_t i = 0; i < n_cold; ++i) cold[order[i]] = true;
  std::set<std::uint64_t> used_seeds;

  std::vector<Planned> out;
  std::size_t cold_seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Planned r;
    r.q = keys[rng.below(keys.size())];
    r.q.op = rng.uniform() < kReportShare ? "report" : "advise";
    r.q.slo = kSlos[rng.below(std::size(kSlos))];
    r.q.p = kPrices[rng.below(std::size(kPrices))];
    r.due_ms = due[i];
    r.cold = cold[i];
    if (r.cold) {
      do {
        r.q.seed = 1 + rng.next() % 4'000'000'000ULL;
      } while (!used_seeds.insert(r.q.seed).second);
    }
    out.push_back(r);
    if (r.cold && cold_seen++ % kTwinEvery == 0) {
      Planned twin = r;
      twin.due_ms += kTwinGapMs;
      twin.original = out.size() - 1;
      out.push_back(twin);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Planned& a,
                                              const Planned& b) {
    return a.due_ms < b.due_ms;
  });
  // Re-point twins at their originals' new positions.
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].original == SIZE_MAX) continue;
    for (std::size_t j = i; j-- > 0;) {
      if (out[j].original == SIZE_MAX && out[j].cold &&
          out[j].q.seed == out[i].q.seed) {
        out[i].original = j;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].traced = trace && i % 2 == 0;
  }
  return out;
}

// ---- responses -----------------------------------------------------------

/// What the harness keeps of one response: digests in place of the answer
/// (a report's CSV is hundreds of kB), so holding every response does not
/// inflate the process's memory.
struct Answered {
  bool ok = false;
  std::string error;   ///< error code of a failed response
  std::string digest;  ///< see answer_digest()
  double queue_ms = 0.0;  ///< the timing block of a traced request
  double run_ms = 0.0;
  std::string output;  ///< kept only for the cold sample
  std::string csv;
};

std::string answer_digest(const std::string& output_hex,
                          const std::string& csv_hex) {
  return Digest().add(output_hex).add(csv_hex).hex();
}

std::string answer_digest_of(const std::string& output,
                             const std::string& csv) {
  return answer_digest(Digest().add(output).hex(), Digest().add(csv).hex());
}

/// One pass over a response line. The answer's "output" and "csv"
/// strings are hashed while they are unescaped, never copied unless
/// asked for: digesting must stay cheap, because the load thread does it
/// between sends.
class ResponseReader {
 public:
  ResponseReader(std::string_view s, bool keep_answer)
      : s_(s), keep_(keep_answer) {}

  Answered read() {
    object("");
    if (i_ != s_.size()) fail();
    a_.ok = scalars_["ok"] == "true";
    a_.error = scalars_["error.code"];
    if (scalars_.count("timing.run_ms") != 0) {
      a_.queue_ms = std::stod(scalars_["timing.queue_ms"]);
      a_.run_ms = std::stod(scalars_["timing.run_ms"]);
    }
    output_.add(std::uint64_t{output_len_});
    csv_.add(std::uint64_t{csv_len_});
    a_.digest = answer_digest(output_.hex(), csv_.hex());
    return std::move(a_);
  }

 private:
  [[noreturn]] void fail() const {
    throw std::runtime_error("malformed response at byte " +
                             std::to_string(i_));
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void expect(char c) {
    if (peek() != c) fail();
    ++i_;
  }
  void object(const std::string& prefix) {
    expect('{');
    if (peek() == '}') {
      ++i_;
      return;
    }
    for (;;) {
      std::string key = prefix;
      string(nullptr, &key, nullptr);
      expect(':');
      if (peek() == '{') {
        object(key + ".");
      } else if (peek() != '"') {
        const std::size_t start = i_;
        while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}') ++i_;
        scalars_[key] = std::string(s_.substr(start, i_ - start));
      } else if (key == "output") {
        string(&output_, keep_ ? &a_.output : nullptr, &output_len_);
      } else if (key == "csv") {
        string(&csv_, keep_ ? &a_.csv : nullptr, &csv_len_);
      } else {
        string(nullptr, &scalars_[key], nullptr);
      }
      if (peek() == '}') {
        ++i_;
        return;
      }
      expect(',');
    }
  }
  /// Unescapes one JSON string into the digest, the string and the
  /// length counter that are given.
  void string(Digest* digest, std::string* into, std::size_t* len) {
    expect('"');
    const auto emit = [&](std::string_view bytes) {
      if (digest != nullptr) digest->bytes(bytes);
      if (into != nullptr) into->append(bytes);
      if (len != nullptr) *len += bytes.size();
    };
    for (;;) {
      std::size_t run = i_;
      while (run < s_.size() && s_[run] != '"' && s_[run] != '\\') ++run;
      if (run == s_.size()) fail();
      emit(s_.substr(i_, run - i_));
      i_ = run + 1;
      if (s_[run] == '"') return;
      if (i_ >= s_.size()) fail();
      char c = s_[i_++];
      switch (c) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'u': {
          // The server escapes only control bytes this way.
          if (i_ + 4 > s_.size()) fail();
          const unsigned long cp =
              std::stoul(std::string(s_.substr(i_, 4)), nullptr, 16);
          if (cp >= 0x20) fail();
          i_ += 4;
          c = static_cast<char>(cp);
          break;
        }
        default: break;  // '"', '\\', '/'
      }
      emit(std::string_view(&c, 1));
    }
  }

  std::string_view s_;
  bool keep_;
  std::size_t i_ = 0;
  std::map<std::string, std::string> scalars_;
  Digest output_;
  Digest csv_;
  std::size_t output_len_ = 0;
  std::size_t csv_len_ = 0;
  Answered a_;
};

// ---- expected answers ----------------------------------------------------

core::SessionConfig session_config(const Query& q) {
  core::SessionConfig sc;  // no cache_dir: nothing is cached
  for (const kvstore::StoreKind kind : kvstore::kAllStoreKinds) {
    if (q.store == kvstore::to_string(kind)) sc.mnemo.store = kind;
  }
  sc.mnemo.repeats = static_cast<int>(kRepeats);
  sc.mnemo.slo_slowdown = q.slo;
  sc.mnemo.price_factor = q.p;
  sc.mnemo.threads = kWorkers;
  return sc;
}

workload::Trace query_trace(const Query& q) {
  workload::WorkloadSpec spec = workload::paper_workload(q.workload);
  if (q.seed != 0) spec.seed = q.seed;
  return workload::Trace::generate(spec);
}

/// What `mnemo advise` / `mnemo report` answer for the query, which a
/// serve response must equal byte for byte.
std::pair<std::string, std::string> answer(core::Session& s,
                                           const std::string& op) {
  if (op == "advise") return {core::render_advise(s.measure(), s.advise()), ""};
  return {s.report().text, s.report().csv};
}

// ---- the server ----------------------------------------------------------

struct DirScan {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};

DirScan scan(const std::string& dir) {
  DirScan d;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    ++d.files;
    d.bytes += e.file_size();
  }
  return d;
}

std::unique_ptr<serve::Server> start_server(const std::string& dir) {
  fs::create_directories(dir);
  serve::ServeOptions so;
  so.threads = kWorkers;
  so.cache_dir = dir;
  return std::make_unique<serve::Server>(std::move(so));
}

/// Makes the 15 warm keys' measurements resident, kWorkers requests in
/// flight at a time. Returns false when an answer is wrong.
bool prefill(serve::Server& server, Expectations& expect) {
  const std::vector<Query> keys = warm_keys();
  std::vector<std::future<std::string>> flight;
  bool ok = true;
  std::size_t next = 0;
  std::size_t done = 0;
  while (done < keys.size()) {
    while (next < keys.size() && flight.size() - done < kWorkers) {
      flight.push_back(server.submit_line(
          keys[next].line("prefill-" + std::to_string(next), false)));
      ++next;
    }
    const Answered a = ResponseReader(flight[done].get(), false).read();
    ok = a.ok && expect.check(keys[done].key(), a.digest) && ok;
    ++done;
  }
  return ok;
}

}  // namespace

Outcome run_serve(Context& ctx) {
  const Options& opt = ctx.opt;
  Tracer& tr = ctx.tracer;
  const std::string dir = (fs::path(opt.out_dir) / "serve-cache").string();
  const std::size_t n = std::max<std::size_t>(
      static_cast<std::size_t>(kRate * static_cast<double>(opt.seconds)),
      min_samples_for(kServeTail));
  const std::vector<Planned> reqs =
      plan(opt.seed, n, static_cast<double>(n) / kRate * 1e3, opt.trace);

  Outcome out;
  std::vector<double> setup_s;
  std::vector<double> setup_bursts;
  std::unique_ptr<serve::Server> server;
  bool correct = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    fs::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    server = start_server(dir);
    correct = prefill(*server, ctx.expect) && correct;
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    for (int b = 0; b < kSetupBursts; ++b) {
      setup_bursts.push_back(reference_burst_ms());
    }
  }
  std::printf("set-up: median of %d, %.4f-%.4f s\n", kSetupRepeats,
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  const serve::ServeStats before = server->stats();
  const DirScan dir_before = scan(dir);
  const double rss_before = rss_mb();

  // Cold answers to recompute with an uncached Session: the first
  // kColdSample that succeed among twice as many candidates.
  std::vector<bool> candidate(reqs.size(), false);
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < reqs.size() && candidates < 2 * kColdSample;
       ++i) {
    if (reqs[i].cold && reqs[i].original == SIZE_MAX) {
      candidate[i] = true;
      ++candidates;
    }
  }

  // The timed phase: one thread sends on schedule and collects. Responses
  // are digested only while the next send is more than kSlack away.
  constexpr auto kSlack = std::chrono::milliseconds(2);
  struct Flight {
    std::size_t index;
    std::future<std::string> response;
  };
  std::vector<Flight> flights;
  std::deque<std::pair<std::size_t, std::string>> unread;
  std::vector<Answered> answered(reqs.size());
  std::vector<Timing> timings(reqs.size());
  /// Traced requests' span ids, taken when they are sent so the submit
  /// span can name its parent.
  std::vector<std::uint64_t> span_id(reqs.size(), 0);
  std::vector<double> bursts;
  Clock::time_point last_burst{};
  const Clock::time_point start = Clock::now();
  const auto at = [&](double ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
  };
  const auto read_one = [&] {
    auto& [i, line] = unread.front();
    answered[i] = ResponseReader(line, candidate[i]).read();
    unread.pop_front();
  };
  std::size_t next = 0;
  while (next < reqs.size() || !flights.empty()) {
    while (next < reqs.size() && at(reqs[next].due_ms) <= Clock::now()) {
      const Planned& r = reqs[next];
      const Clock::time_point sent = Clock::now();
      if (r.traced) span_id[next] = tr.new_id();
      {
        Scope s(r.traced ? tr : untraced(), "serve.submit", next + 1,
                span_id[next]);
        flights.push_back({next, server->submit_line(r.q.line(
                                     "r" + std::to_string(next), r.traced))});
      }
      timings[next].due_ms = r.due_ms;
      timings[next].sent_ms = ms_between(start, sent);
      ++next;
    }
    for (auto it = flights.begin(); it != flights.end();) {
      if (it->response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      timings[it->index].done_ms = ms_between(start, Clock::now());
      unread.emplace_back(it->index, it->response.get());
      it = flights.erase(it);
    }
    while (!unread.empty() &&
           (next == reqs.size() ||
            at(reqs[next].due_ms) - Clock::now() > kSlack)) {
      read_one();
    }
    if (flights.empty() && unread.empty() && next < reqs.size() &&
        at(reqs[next].due_ms) - Clock::now() > kBurstSlack &&
        Clock::now() - last_burst > kBurstEvery) {
      last_burst = Clock::now();
      bursts.push_back(reference_burst_ms());
    }
    // Sleep until the next send, at most 200 us, waking early when the
    // oldest request in flight completes.
    Clock::time_point wake = Clock::now() + std::chrono::microseconds(200);
    if (next < reqs.size()) wake = std::min(wake, at(reqs[next].due_ms));
    if (!flights.empty()) {
      flights.front().response.wait_until(wake);
    } else {
      std::this_thread::sleep_until(wake);
    }
  }
  while (!unread.empty()) read_one();
  double wall_ms = 0.0;
  for (const Timing& t : timings) wall_ms = std::max(wall_ms, t.done_ms);
  const serve::ServeStats after = server->stats();

  // Output checks and per-response accounting.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> queue_ms;
  std::vector<double> warm_run_ms;
  std::vector<double> cold_run_ms;
  std::size_t twins = 0;
  OpenLoop ol = open_loop(timings);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Planned& r = reqs[i];
    const Answered& a = answered[i];
    if (r.original != SIZE_MAX) ++twins;
    if (!a.ok) {
      // A refused or late request counts as missing the latency limit;
      // any other error is a wrong answer.
      ol.latency_ms[i] =
          std::max(ol.latency_ms[i], static_cast<double>(kDeadlineMs));
      if (a.error != "overloaded" && a.error != "deadline_exceeded") {
        correct = false;
      }
      if (++out.failed <= 10) {
        std::fprintf(stderr, "serve r%zu failed: %s\n", i, a.error.c_str());
      }
      continue;
    }
    if (!r.cold) {
      correct = ctx.expect.check(r.q.key(), a.digest) && correct;
    } else if (r.original != SIZE_MAX && answered[r.original].ok &&
               answered[r.original].digest != a.digest) {
      std::fprintf(stderr, "output check: r%zu differs from its twin r%zu\n",
                   i, r.original);
      correct = false;
    }
    (r.traced ? traced_ms : untraced_ms).push_back(ol.latency_ms[i]);
    if (r.traced) {
      queue_ms.push_back(a.queue_ms);
      (r.cold ? cold_run_ms : warm_run_ms).push_back(a.run_ms);
      // The request from its due time to its response, with the server's
      // queue and run phases placed back from the response. Requests
      // overlap, so each gets a track of its own in the trace viewer.
      const double done_ms = timings[i].done_ms;
      const auto track = static_cast<std::uint32_t>(1000 + i % 64);
      const std::uint64_t op = i + 1;
      tr.add({span_id[i], 0, op, "serve.request", at(r.due_ms), at(done_ms),
              track});
      tr.add({tr.new_id(), span_id[i], op, "serve.queue",
              at(done_ms - a.run_ms - a.queue_ms), at(done_ms - a.run_ms),
              track});
      tr.add({tr.new_id(), span_id[i], op, "serve.run",
              at(done_ms - a.run_ms), at(done_ms), track});
    }
  }

  std::size_t sampled = 0;
  for (std::size_t i = 0; i < reqs.size() && sampled < kColdSample; ++i) {
    if (!candidate[i] || !answered[i].ok) continue;
    ++sampled;
    const Query& q = reqs[i].q;
    core::Session s(query_trace(q), session_config(q));
    const auto [output, csv] = answer(s, q.op);
    if (output != answered[i].output || csv != answered[i].csv) {
      std::fprintf(stderr,
                   "output check: cold r%zu differs from an uncached "
                   "Session\n",
                   i);
      correct = false;
    }
  }
  if (sampled < kColdSample) correct = false;

  out.correct = correct;
  out.attempted = reqs.size();
  const Tail t = tail(ol.latency_ms, kServeTail);
  const double cells = static_cast<double>(after.cells_run - before.cells_run);
  const double p50 = median(ol.latency_ms);
  const double host = slowdown(bursts);
  const double setup_host = slowdown(setup_bursts);
  // Times scaled to the reference kernel's nominal speed. The simulated
  // request rate follows the offered load, not the host, so it is not.
  out.end_to_end["setup_s"] = median(setup_s) / setup_host;
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
  out.end_to_end["p50_ms"] = p50 / host;
  out.end_to_end["tail_ms"] = t.value / host;
  out.end_to_end["sim_mreq_per_s"] =
      cells * static_cast<double>(workload::paper_suite()[0].request_count) /
      (wall_ms / 1e3) / 1e6;
  out.end_to_end["ok_ratio"] =
      static_cast<double>(out.attempted - out.failed) /
      static_cast<double>(out.attempted);
  std::printf("serve: %zu requests over %.2f s (%.1f req/s offered), "
              "tail_ms is the %s\n",
              reqs.size(), wall_ms / 1e3,
              static_cast<double>(reqs.size()) /
                  (reqs.back().due_ms / 1e3),
              describe(t).c_str());
  std::printf("host: slowdown %.3f over %zu bursts (set-up %.3f); as "
              "measured: setup_s %.4f, p50_ms %.2f, tail_ms %.2f\n",
              host, bursts.size(), setup_host, median(setup_s), p50, t.value);
  out.layers["host.slowdown"] = host;

  if (opt.trace) {
    const std::vector<Span> spans = tr.spans();
    const DirScan dir_after = scan(dir);
    const double kreq = static_cast<double>(reqs.size()) / 1e3;
    const auto req = static_cast<double>(reqs.size());
    std::vector<double> submit_us = durations_ms(spans, "serve.submit");
    for (double& x : submit_us) x *= 1e3;
    out.layers["serve.submit_us"] = median(submit_us);
    out.layers["serve.warm_run_ms"] = median(warm_run_ms);
    out.layers["serve.cold_run_ms"] = median(cold_run_ms);
    out.layers["serve.queue_p50_ms"] = median(queue_ms);
    const Tail qt = tail(queue_ms, highest_supported_quantile(queue_ms.size()));
    out.layers["serve.queue_tail_ms"] = qt.value;
    std::printf("serve.queue_tail_ms is the %s\n", describe(qt).c_str());
    out.layers["serve.leads"] =
        static_cast<double>(after.measure_leads - before.measure_leads);
    out.layers["serve.memo_hits"] = static_cast<double>(
        after.measure_memo_hits - before.measure_memo_hits);
    const auto joins = static_cast<double>(after.single_flight_joins -
                                           before.single_flight_joins);
    out.layers["serve.joins"] = joins;
    out.layers["serve.join_ratio"] =
        twins == 0 ? 0.0 : joins / static_cast<double>(twins);
    out.layers["serve.queue_hwm"] =
        static_cast<double>(after.queue_depth_hwm);
    out.layers["serve.cells_run"] = cells;
    out.layers["serve.refused"] =
        static_cast<double>(after.overloaded - before.overloaded);
    out.layers["serve.deadline_misses"] =
        static_cast<double>(after.deadline_hits - before.deadline_hits);
    out.layers["core.store_files_per_req"] =
        static_cast<double>(dir_after.files - dir_before.files) / req;
    out.layers["core.store_bytes_per_req"] =
        static_cast<double>(dir_after.bytes - dir_before.bytes) / req;
    out.layers["serve.rss_growth_mb_per_kreq"] =
        (rss_mb() - rss_before) / kreq;
    out.layers["load.late_p99_ms"] = quantile(ol.late_ms, 0.99);
    out.layers["load.late_max_ms"] =
        *std::max_element(ol.late_ms.begin(), ol.late_ms.end());
    out.layers["trace.overhead_pct"] =
        (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0;
  }
  server.reset();
  fs::remove_all(dir);
  return out;
}

void record_serve(Expectations& expect) {
  for (Query q : warm_keys()) {
    core::Session s(query_trace(q), session_config(q));
    for (const double slo : kSlos) {
      for (const double p : kPrices) {
        q.slo = slo;
        q.p = p;
        s.set_slo(slo);
        s.set_price(p);
        for (const char* op : kOps) {
          q.op = op;
          const auto [output, csv] = answer(s, q.op);
          expect.check(q.key(), answer_digest_of(output, csv));
        }
      }
    }
  }
}

}  // namespace e2e
