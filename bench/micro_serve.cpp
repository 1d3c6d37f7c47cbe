// Serve-mode microbenchmark: what single-flight deduplication is worth
// when concurrent clients ask the consultant the same question. Three
// phases against one Server (caching off, so the only dedup layer is the
// in-memory single-flight memo):
//
//   cold       one client, distinct measure keys — every request replays
//   warm       one client, repeats of a memoized key — zero replays
//   contended  N clients × one identical request each, fresh server —
//              one leader replays, everyone else joins or memo-hits
//   mixed      big and small requests with distinct keys contending for
//              one worker pool: cell-granular scheduling (submit_line on
//              the shared TaskScheduler, smalls deadline-armed so EDF
//              lifts their cells to the head of each round) vs a
//              one-worker-per-request emulation (FIFO dispatchers owning
//              a whole request each). Reports small-request p95 both
//              ways and the speedup — the tentpole acceptance is >= 2x.
//   deadlines  N clients against chaos-stalled campaigns, half carrying a
//              hair-trigger request deadline (the rest ride the server
//              default) — every hair-trigger settles typed via the
//              scheduler's deadline timer, the rest complete
//
// Results go to BENCH_serve.json in a stable schema
// ("mnemo.bench.serve/v1") that future PRs diff against. The smoke mode
// also asserts the dedup contract: the warm phase replays zero campaign
// cells, the contended phase replays exactly one leader's worth, and the
// deadline phase's hit rate is exactly the hair-trigger fraction.
//
//   ./micro_serve               full run, writes BENCH_serve.json
//   ./micro_serve --smoke       tiny workload + schema self-check (CI)
//   ./micro_serve --out FILE    alternate output path
//   ./micro_serve --repeats N   timing repeats per phase (min/median)
//   ./micro_serve --clients N   contended-phase client threads

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "faultinject/io_fault.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

namespace {

using namespace mnemo;

/// One request through submit_line, the live request path; returns the
/// response line.
std::string ask(serve::Server& server, const serve::Request& req) {
  return server.submit_line(req.to_json_line()).get();
}

[[nodiscard]] bool answered_ok(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

struct PhaseResult {
  double min_s = 0.0;
  double median_s = 0.0;
  std::size_t campaign_cells = 0;  ///< per repeat (identical across them)
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

PhaseResult reduce(const std::vector<double>& seconds, std::size_t cells) {
  PhaseResult r;
  r.min_s = *std::min_element(seconds.begin(), seconds.end());
  r.median_s = median(seconds);
  r.campaign_cells = cells;
  return r;
}

/// Nearest-rank p95 (n >= 1).
double p95(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t rank = (95 * v.size() + 99) / 100;  // ceil(0.95 n)
  return v[rank - 1];
}

serve::Request make_request(bool smoke, std::string id, std::uint64_t seed) {
  serve::Request req;
  req.id = std::move(id);
  req.op = serve::RequestOp::kAdvise;
  req.keys = smoke ? 150 : 1'000;
  req.requests = smoke ? 1'500 : 20'000;
  req.repeats = 1;
  if (seed > 0) req.seed = seed;  // distinct seed => distinct measure key
  return req;
}

struct MixedResult {
  double sched_p95_s = 0.0;  ///< small-request p95, cell-granular server
  double base_p95_s = 0.0;   ///< small-request p95, whole-request baseline
  double speedup = 0.0;      ///< base / sched (higher is better)
};

void write_json(const std::string& path, bool smoke, int repeats,
                std::size_t clients, const PhaseResult& cold,
                const PhaseResult& warm, const PhaseResult& contended,
                const serve::ServeStats& stats, const MixedResult& mixed,
                const PhaseResult& deadlines,
                const serve::ServeStats& deadline_stats) {
  std::ostringstream out;
  char buf[64];
  const auto phase = [&](const char* name, const PhaseResult& r,
                         const char* tail) {
    std::snprintf(buf, sizeof buf, "%.6f", r.min_s);
    out << "    \"" << name << "\": {\"min_s\": " << buf;
    std::snprintf(buf, sizeof buf, "%.6f", r.median_s);
    out << ", \"median_s\": " << buf
        << ", \"campaign_cells\": " << r.campaign_cells << "}" << tail
        << "\n";
  };
  const std::uint64_t dedup = stats.single_flight_joins +
                              stats.measure_memo_hits;
  const double join_rate =
      stats.requests > 0
          ? static_cast<double>(dedup) / static_cast<double>(stats.requests)
          : 0.0;
  out << "{\n";
  out << "  \"schema\": \"mnemo.bench.serve/v1\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"clients\": " << clients << ",\n";
  out << "  \"results\": {\n";
  phase("cold", cold, ",");
  phase("warm", warm, ",");
  phase("contended", contended, ",");
  phase("deadline", deadlines, ",");
  out << "    \"single_flight\": {\"leads\": " << stats.measure_leads
      << ", \"joins\": " << stats.single_flight_joins
      << ", \"memo_hits\": " << stats.measure_memo_hits << ", ";
  std::snprintf(buf, sizeof buf, "%.3f", join_rate);
  out << "\"join_rate\": " << buf << "},\n";
  std::snprintf(buf, sizeof buf, "%.6f", mixed.sched_p95_s);
  out << "    \"mixed\": {\"small_p95_s\": " << buf;
  std::snprintf(buf, sizeof buf, "%.6f", mixed.base_p95_s);
  out << ", \"baseline_small_p95_s\": " << buf;
  std::snprintf(buf, sizeof buf, "%.3f", mixed.speedup);
  out << ", \"speedup\": " << buf << "},\n";
  const double hit_rate =
      deadline_stats.requests > 0
          ? static_cast<double>(deadline_stats.deadline_hits) /
                static_cast<double>(deadline_stats.requests)
          : 0.0;
  out << "    \"deadlines\": {\"requests\": " << deadline_stats.requests
      << ", \"hits\": " << deadline_stats.deadline_hits << ", ";
  std::snprintf(buf, sizeof buf, "%.3f", hit_rate);
  out << "\"hit_rate\": " << buf << "}\n";
  out << "  }\n";
  out << "}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file.good()) {
    std::fprintf(stderr, "micro_serve: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Schema self-check for --smoke: the stable keys are present and the
/// braces balance (not a full parser, just enough to catch a malformed
/// writer before a CI consumer does).
bool validate_json(const std::string& path) {
  std::ifstream file(path);
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string text = ss.str();
  if (text.empty()) return false;
  for (const char* key :
       {"\"schema\": \"mnemo.bench.serve/v1\"", "\"repeats\"", "\"clients\"",
        "\"results\"", "\"cold\"", "\"warm\"", "\"contended\"",
        "\"campaign_cells\"", "\"single_flight\"", "\"join_rate\"",
        "\"mixed\"", "\"small_p95_s\"", "\"speedup\"",
        "\"deadlines\"", "\"hit_rate\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "micro_serve: missing key %s\n", key);
      return false;
    }
  }
  long depth = 0;
  for (const char ch : text) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (depth < 0) return false;
  }
  return depth == 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("micro_serve",
                         "serve-mode single-flight dedup microbenchmark");
  parser.add_flag("smoke", "tiny workload + schema self-check (CI)");
  parser.add_option("out", "output JSON path", "BENCH_serve.json");
  parser.add_option("repeats", "timing repeats per phase", "");
  parser.add_option("clients", "contended-phase client threads", "8");
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  if (!parser.parse(args, &error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), parser.help().c_str());
    return 2;
  }
  const bool smoke = parser.has_flag("smoke");
  const int repeats = parser.get("repeats").empty()
                          ? (smoke ? 2 : 5)
                          : static_cast<int>(parser.get_u64("repeats"));
  const std::size_t clients =
      static_cast<std::size_t>(parser.get_u64("clients"));
  const std::string out = parser.get("out");

  std::printf("== micro_serve: %s, %d repeats, %zu clients ==\n",
              smoke ? "smoke" : "full", repeats, clients);

  // Cold: one client, a distinct measure key per repeat (seed-varied), so
  // every request pays a full emulator replay.
  std::vector<double> cold_s;
  std::size_t cold_cells = 0;
  serve::ServeOptions cold_options;
  cold_options.threads = 1;
  serve::Server cold_server(std::move(cold_options));
  for (int r = 0; r < repeats; ++r) {
    const std::size_t before = core::campaign_totals().cells;
    util::WallTimer timer;
    const std::string line =
        ask(cold_server,
            make_request(smoke, "cold-" + std::to_string(r),
                         0x5eed0000ULL + static_cast<std::uint64_t>(r)));
    cold_s.push_back(timer.elapsed_s());
    if (!answered_ok(line)) {
      std::fprintf(stderr, "micro_serve: cold request failed: %s\n",
                   line.c_str());
      return 1;
    }
    cold_cells = core::campaign_totals().cells - before;
  }

  // Warm: repeats of a key the cold phase memoized — pure memo hits.
  std::vector<double> warm_s;
  std::size_t warm_cells = 0;
  for (int r = 0; r < repeats; ++r) {
    const std::size_t before = core::campaign_totals().cells;
    util::WallTimer timer;
    const std::string line = ask(
        cold_server,
        make_request(smoke, "warm-" + std::to_string(r), 0x5eed0000ULL));
    warm_s.push_back(timer.elapsed_s());
    if (!answered_ok(line)) return 1;
    warm_cells = core::campaign_totals().cells - before;
  }

  // Contended: a fresh server per repeat; N clients fire one identical
  // request each, concurrently. Wall clock covers admission to the last
  // response — one leader replays while the rest block and join.
  std::vector<double> contended_s;
  std::size_t contended_cells = 0;
  serve::ServeStats contended_stats;
  for (int r = 0; r < repeats; ++r) {
    serve::ServeOptions options;
    options.threads = clients;
    options.queue_capacity = clients;
    serve::Server server(std::move(options));
    const std::size_t before = core::campaign_totals().cells;

    std::vector<std::future<std::string>> responses(clients);
    util::WallTimer timer;
    {
      std::vector<std::thread> workers;
      workers.reserve(clients);
      for (std::size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          responses[c] = server.submit_line(
              make_request(smoke, "cont-" + std::to_string(c), 0x5eed0000ULL)
                  .to_json_line());
        });
      }
      for (std::thread& t : workers) t.join();
    }
    for (std::future<std::string>& f : responses) (void)f.get();
    contended_s.push_back(timer.elapsed_s());
    contended_cells = core::campaign_totals().cells - before;
    contended_stats = server.stats();
  }

  // Mixed: the cell-granular scheduling payoff. 6 big requests (8 grid
  // repeats => 16 chaos-stalled cells each) are admitted ahead of 8 small
  // ones (2 cells each), every key distinct so single-flight can't help.
  // Scheduler mode submits everything to one Server: requests share the
  // worker pool at cell granularity and the smalls carry a (generous)
  // deadline, so EDF dispatches their cells at the head of every round.
  // The baseline emulates the old one-worker-per-request server: FIFO
  // dispatcher threads each own a whole request at a time, so a small
  // request admitted behind the bigs waits for whole campaigns to clear.
  constexpr std::size_t kMixedBigs = 6;
  constexpr std::size_t kMixedSmalls = 8;
  constexpr std::size_t kMixedThreads = 4;
  const auto mixed_request = [&](std::size_t i, bool big) {
    serve::Request req = make_request(
        smoke, (big ? "big-" : "small-") + std::to_string(i),
        (big ? 0xb160000ULL : 0x5a110000ULL) +
            static_cast<std::uint64_t>(i));
    req.repeats = big ? 8 : 1;
    if (!big) req.deadline_ms = 600'000;  // EDF key, far from expiring
    return req;
  };
  std::vector<double> mixed_sched_p95;
  std::vector<double> mixed_base_p95;
  for (int r = 0; r < repeats; ++r) {
    faultinject::IoFaultPlan plan;
    plan.slow_cell_rate = 1.0;
    plan.slow_cell_ms = smoke ? 10.0 : 5.0;
    faultinject::ScopedIoFaults chaos(plan);

    // Cell-granular: all requests in service at once on one scheduler.
    {
      serve::ServeOptions options;
      options.threads = kMixedThreads;
      options.queue_capacity = kMixedBigs + kMixedSmalls;
      serve::Server server(std::move(options));
      util::WallTimer timer;
      std::vector<std::future<std::string>> bigs;
      for (std::size_t i = 0; i < kMixedBigs; ++i) {
        bigs.push_back(
            server.submit_line(mixed_request(i, true).to_json_line()));
      }
      std::vector<std::future<std::string>> smalls;
      for (std::size_t i = 0; i < kMixedSmalls; ++i) {
        smalls.push_back(
            server.submit_line(mixed_request(i, false).to_json_line()));
      }
      std::vector<double> small_done(kMixedSmalls);
      std::vector<std::thread> waiters;
      for (std::size_t i = 0; i < kMixedSmalls; ++i) {
        waiters.emplace_back([&, i] {
          const std::string line = smalls[i].get();
          small_done[i] = timer.elapsed_s();
          if (!answered_ok(line)) {
            std::fprintf(stderr, "micro_serve: mixed small failed: %s\n",
                         line.c_str());
            std::exit(1);
          }
        });
      }
      for (std::thread& t : waiters) t.join();
      for (std::future<std::string>& f : bigs) (void)f.get();
      mixed_sched_p95.push_back(p95(small_done));
    }

    // Whole-request baseline: same request mix and arrival order, but
    // dispatcher threads own one request each from admission to answer,
    // so at most kMixedThreads requests are in service at once.
    {
      serve::ServeOptions options;
      options.threads = kMixedThreads;
      options.queue_capacity = kMixedBigs + kMixedSmalls;
      serve::Server server(std::move(options));
      std::vector<serve::Request> fifo;
      for (std::size_t i = 0; i < kMixedBigs; ++i) {
        fifo.push_back(mixed_request(i, true));
      }
      for (std::size_t i = 0; i < kMixedSmalls; ++i) {
        fifo.push_back(mixed_request(i, false));
      }
      std::vector<double> done(fifo.size());
      std::atomic<std::size_t> next{0};
      util::WallTimer timer;
      std::vector<std::thread> dispatchers;
      for (std::size_t t = 0; t < kMixedThreads; ++t) {
        dispatchers.emplace_back([&] {
          for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= fifo.size()) return;
            const std::string line = ask(server, fifo[i]);
            done[i] = timer.elapsed_s();
            if (!answered_ok(line)) {
              std::fprintf(stderr,
                           "micro_serve: mixed baseline failed: %s\n",
                           line.c_str());
              std::exit(1);
            }
          }
        });
      }
      for (std::thread& t : dispatchers) t.join();
      mixed_base_p95.push_back(p95(
          {done.begin() + static_cast<std::ptrdiff_t>(kMixedBigs),
           done.end()}));
    }
  }
  MixedResult mixed;
  mixed.sched_p95_s = median(mixed_sched_p95);
  mixed.base_p95_s = median(mixed_base_p95);
  mixed.speedup =
      mixed.sched_p95_s > 0.0 ? mixed.base_p95_s / mixed.sched_p95_s : 0.0;

  // Deadlines: a fresh server per repeat with every campaign cell stalled
  // by injected chaos (so a hair-trigger deadline always lapses
  // mid-campaign). Even-numbered clients carry a 1ms request deadline —
  // the scheduler's deadline timer turns each into a typed
  // deadline_exceeded answer — while
  // the rest carry none and ride the generous server default to a full
  // answer. Distinct seeds keep the flights separate, so the hit count is
  // exactly the hair-trigger fraction.
  std::vector<double> deadline_s;
  serve::ServeStats deadline_stats;
  for (int r = 0; r < repeats; ++r) {
    faultinject::IoFaultPlan plan;
    plan.slow_cell_rate = 1.0;
    plan.slow_cell_ms = smoke ? 20.0 : 5.0;
    faultinject::ScopedIoFaults chaos(plan);

    serve::ServeOptions options;
    options.threads = clients;
    options.queue_capacity = clients;
    options.default_deadline_ms = 600'000;
    serve::Server server(std::move(options));

    std::vector<std::future<std::string>> responses(clients);
    util::WallTimer timer;
    for (std::size_t c = 0; c < clients; ++c) {
      serve::Request req =
          make_request(smoke, "dl-" + std::to_string(c),
                       0xdead0000ULL + static_cast<std::uint64_t>(c));
      if (c % 2 == 0) req.deadline_ms = 1;
      responses[c] = server.submit_line(req.to_json_line());
    }
    for (std::future<std::string>& f : responses) (void)f.get();
    deadline_s.push_back(timer.elapsed_s());
    deadline_stats = server.stats();
  }

  const PhaseResult cold = reduce(cold_s, cold_cells);
  const PhaseResult warm = reduce(warm_s, warm_cells);
  const PhaseResult contended = reduce(contended_s, contended_cells);
  const PhaseResult deadlines = reduce(deadline_s, 0);
  std::printf("cold      %10.3f ms (min %10.3f)  %zu campaign cells\n",
              cold.median_s * 1e3, cold.min_s * 1e3, cold.campaign_cells);
  std::printf("warm      %10.3f ms (min %10.3f)  %zu campaign cells\n",
              warm.median_s * 1e3, warm.min_s * 1e3, warm.campaign_cells);
  std::printf("contended %10.3f ms (min %10.3f)  %zu campaign cells\n",
              contended.median_s * 1e3, contended.min_s * 1e3,
              contended.campaign_cells);
  std::printf("mixed     small p95 %8.3f ms vs baseline %8.3f ms "
              "(%.2fx)\n",
              mixed.sched_p95_s * 1e3, mixed.base_p95_s * 1e3,
              mixed.speedup);
  std::printf("deadline  %10.3f ms (min %10.3f)  %llu/%llu hit\n",
              deadlines.median_s * 1e3, deadlines.min_s * 1e3,
              static_cast<unsigned long long>(deadline_stats.deadline_hits),
              static_cast<unsigned long long>(deadline_stats.requests));
  std::printf("single-flight: %llu leads, %llu joins, %llu memo hits\n",
              static_cast<unsigned long long>(contended_stats.measure_leads),
              static_cast<unsigned long long>(
                  contended_stats.single_flight_joins),
              static_cast<unsigned long long>(
                  contended_stats.measure_memo_hits));

  write_json(out, smoke, repeats, clients, cold, warm, contended,
             contended_stats, mixed, deadlines, deadline_stats);
  std::printf("wrote %s\n", out.c_str());

  if (smoke) {
    if (warm.campaign_cells != 0) {
      std::fprintf(stderr, "micro_serve: warm request replayed the grid\n");
      return 1;
    }
    if (contended.campaign_cells != cold.campaign_cells) {
      std::fprintf(stderr,
                   "micro_serve: contended phase replayed more than one "
                   "leader's worth (%zu vs %zu cells)\n",
                   contended.campaign_cells, cold.campaign_cells);
      return 1;
    }
    if (contended_stats.measure_leads != 1 ||
        contended_stats.single_flight_joins +
                contended_stats.measure_memo_hits !=
            clients - 1) {
      std::fprintf(stderr, "micro_serve: dedup accounting is off\n");
      return 1;
    }
    if (mixed.speedup < 2.0) {
      std::fprintf(stderr,
                   "micro_serve: mixed-phase small-request p95 speedup "
                   "%.2fx is below the 2x acceptance floor (sched %.3f ms "
                   "vs baseline %.3f ms)\n",
                   mixed.speedup, mixed.sched_p95_s * 1e3,
                   mixed.base_p95_s * 1e3);
      return 1;
    }
    const std::uint64_t hair_trigger = (clients + 1) / 2;
    if (deadline_stats.deadline_hits != hair_trigger ||
        deadline_stats.ok != clients - hair_trigger) {
      std::fprintf(stderr,
                   "micro_serve: deadline accounting is off "
                   "(%llu hits, %llu ok; expected %llu/%llu)\n",
                   static_cast<unsigned long long>(
                       deadline_stats.deadline_hits),
                   static_cast<unsigned long long>(deadline_stats.ok),
                   static_cast<unsigned long long>(hair_trigger),
                   static_cast<unsigned long long>(clients - hair_trigger));
      return 1;
    }
    if (!validate_json(out)) {
      std::fprintf(stderr, "micro_serve: schema validation FAILED\n");
      return 1;
    }
    std::printf("schema ok\n");
  }
  return 0;
}
