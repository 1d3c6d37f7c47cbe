#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "core/campaign.hpp"
#include "core/session.hpp"
#include "serve/json.hpp"
#include "workload/suite.hpp"

namespace mnemo::serve {
namespace {

namespace fs = std::filesystem;

/// The shared small workload: tiny enough for unit-test latency, same
/// flags the CLI pipeline tests use.
Request small_advise(std::string id) {
  Request req;
  req.id = std::move(id);
  req.op = RequestOp::kAdvise;
  req.keys = 150;
  req.requests = 1500;
  req.repeats = 1;
  return req;
}

/// One request through submit_line, the live request path; the answer is
/// its parsed response line.
JsonValue ask(Server& server, const Request& req) {
  return json_parse(server.submit_line(req.to_json_line()).get());
}

/// The CLI's answer for the same configuration, minus the presentation
/// lines serve deliberately omits ("campaign cells executed: N" depends
/// on how the run was satisfied, not on the answer).
std::string cli_answer(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(cli::run(args, out, err), 0) << err.str();
  std::istringstream lines(out.str());
  std::string line;
  std::string answer;
  while (std::getline(lines, line)) {
    if (line.rfind("campaign cells executed:", 0) == 0) continue;
    answer += line + "\n";
  }
  return answer;
}

TEST(ServeServer, AdviseResponseIsBitIdenticalToTheCliAnswer) {
  Server server(ServeOptions{});
  const JsonValue v = ask(server, small_advise("r1"));
  ASSERT_TRUE(v.find("ok")->value.boolean);
  EXPECT_EQ(v.find("output")->value.string,
            cli_answer({"advise", "--workload", "trending", "--keys", "150",
                        "--requests", "1500", "--repeats", "1"}));
}

TEST(ServeServer, EveryOpAnswersLikeTheCli) {
  Server server(ServeOptions{});
  const std::vector<std::string> base = {"--workload", "trending",  "--keys",
                                         "150",        "--requests", "1500",
                                         "--repeats",  "1"};
  for (const RequestOp op : {RequestOp::kCharacterize, RequestOp::kMeasure,
                             RequestOp::kReport}) {
    Request req = small_advise(std::string("op-") +
                               std::string(to_string(op)));
    req.op = op;
    const JsonValue v = ask(server, req);
    ASSERT_TRUE(v.find("ok")->value.boolean) << to_string(op);
    std::vector<std::string> args = {std::string(to_string(op))};
    args.insert(args.end(), base.begin(), base.end());
    EXPECT_EQ(v.find("output")->value.string, cli_answer(args))
        << to_string(op);
  }
}

TEST(ServeServer, ReportResponseCarriesTheCsvArtifact) {
  Server server(ServeOptions{});
  Request req = small_advise("csv");
  req.op = RequestOp::kReport;
  const JsonValue v = ask(server, req);
  ASSERT_TRUE(v.find("ok")->value.boolean);
  EXPECT_NE(v.find("csv")->value.string.find("key_id"), std::string::npos);
}

TEST(ServeServer, InvalidWorkloadIsATypedErrorResponse) {
  Server server(ServeOptions{});
  Request req = small_advise("bad");
  req.workload = "no-such-workload";
  const JsonValue v = ask(server, req);
  EXPECT_FALSE(v.find("ok")->value.boolean);
  EXPECT_EQ(v.find("error")->value.find("code")->value.string,
            "invalid_argument");
  EXPECT_EQ(v.find("id")->value.string, "bad");
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServeServer, LinesThatOnceAbortedTheServerAnswerTyped) {
  // Each of these lines used to trip an assertion and take the whole
  // server (and every in-flight answer) down. One server answers them all
  // typed, then still answers a normal request.
  Server server(ServeOptions{});
  const std::vector<std::pair<std::string, std::string>> refused = {
      {R"({"id":"p","op":"advise","p":1.5})", "parse_error"},
      {R"({"id":"slo","op":"advise","slo":2})", "parse_error"},
      {R"({"id":"hot","op":"advise","workload":"trending","keys":1})",
       "invalid_argument"},
      {R"({"id":"hot","op":"advise","workload":"trending_preview","keys":1})",
       "invalid_argument"},
  };
  for (const auto& [line, code] : refused) {
    const JsonValue v = json_parse(server.submit_line(line).get());
    EXPECT_FALSE(v.find("ok")->value.boolean) << line;
    EXPECT_EQ(v.find("error")->value.find("code")->value.string, code)
        << line;
  }
  // A grid so small its per-key refunds carry no signal: the estimate
  // still lands on the FastMem baseline and the answer is ordinary.
  for (const RequestOp op : {RequestOp::kAdvise, RequestOp::kReport}) {
    Request tiny = small_advise("tiny");
    tiny.op = op;
    tiny.workload = "news_feed";
    tiny.keys = 2;
    tiny.requests = 2;
    EXPECT_TRUE(ask(server, tiny).find("ok")->value.boolean)
        << to_string(op);
  }
  EXPECT_TRUE(ask(server, small_advise("after")).find("ok")->value.boolean);
}

TEST(ServeServer, IdenticalRequestsReplayTheCampaignOnce) {
  ServeOptions options;
  options.threads = 1;
  Server server(std::move(options));
  const std::size_t before = core::campaign_totals().cells;
  ASSERT_TRUE(ask(server, small_advise("a")).find("ok")->value.boolean);
  const std::size_t once = core::campaign_totals().cells - before;
  ASSERT_GT(once, 0u);
  ASSERT_TRUE(ask(server, small_advise("b")).find("ok")->value.boolean);
  EXPECT_EQ(core::campaign_totals().cells - before, once);
  EXPECT_EQ(server.stats().measure_leads, 1u);
  EXPECT_EQ(server.stats().measure_memo_hits, 1u);
}

TEST(ServeServer, ZeroCapacityRefusesEverythingWithOverloaded) {
  ServeOptions options;
  options.queue_capacity = 0;
  Server server(std::move(options));
  std::future<std::string> fut =
      server.submit_line(small_advise("r1").to_json_line());
  const std::string line = fut.get();
  const JsonValue v = json_parse(line);
  EXPECT_FALSE(v.find("ok")->value.boolean);
  EXPECT_EQ(v.find("error")->value.find("code")->value.string, "overloaded");
  EXPECT_EQ(v.find("id")->value.string, "r1");  // refusals echo the id
  EXPECT_EQ(server.stats().overloaded, 1u);
  EXPECT_EQ(server.stats().requests, 1u);
}

TEST(ServeServer, FullQueueRefusesTheExcessRequestDeterministically) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  ServeOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  options.on_request = [&](const Request&) {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(std::move(options));

  // First request admitted; its worker parks inside on_request, keeping
  // pending == capacity.
  std::future<std::string> first =
      server.submit_line(small_advise("held").to_json_line());
  std::future<std::string> refused =
      server.submit_line(small_advise("extra").to_json_line());
  const JsonValue v = json_parse(refused.get());
  EXPECT_EQ(v.find("error")->value.find("code")->value.string, "overloaded");

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(json_parse(first.get()).find("ok")->value.boolean);
  EXPECT_EQ(server.stats().overloaded, 1u);
  EXPECT_EQ(server.stats().queue_depth_hwm, 1u);
}

TEST(ServeServer, ParseFailuresAnswerImmediatelyAndAreCounted) {
  Server server(ServeOptions{});
  std::future<std::string> fut = server.submit_line("{truncated");
  const JsonValue v = json_parse(fut.get());
  EXPECT_FALSE(v.find("ok")->value.boolean);
  EXPECT_EQ(v.find("error")->value.find("code")->value.string,
            "parse_error");
  EXPECT_GT(v.find("error")->value.find("position")->value.magnitude, 0u);
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(ServeServer, ServeStreamAnswersInArrivalOrderAndDrains) {
  ServeOptions options;
  options.threads = 4;
  Server server(std::move(options));
  std::istringstream in(small_advise("s1").to_json_line() + "\n" +
                        "garbage\n" +
                        "\n" +  // blank lines are skipped, not answered
                        small_advise("s2").to_json_line() + "\r\n" +
                        small_advise("s3").to_json_line() + "\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(lines, line)) {
    ids.push_back(json_parse(line).find("id")->value.string);
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"s1", "", "s2", "s3"}));
  EXPECT_EQ(server.stats().requests, 4u);
  EXPECT_EQ(server.stats().ok, 3u);
}

TEST(ServeServer, StatsOpReportsTheLedger) {
  Server server(ServeOptions{});
  ASSERT_TRUE(ask(server, small_advise("a")).find("ok")->value.boolean);
  Request stats;
  stats.id = "st";
  stats.op = RequestOp::kStats;
  const JsonValue v = ask(server, stats);
  ASSERT_TRUE(v.find("ok")->value.boolean);
  EXPECT_NE(v.find("output")->value.string.find("measure leads       1"),
            std::string::npos);
}

TEST(ServeServer, TimingBlockIsOptInAndCountsTheCampaignCells) {
  Server server(ServeOptions{});
  Request timed = small_advise("timed");
  timed.timing = true;
  const std::string line =
      server.submit_line(timed.to_json_line()).get();
  const JsonValue v = json_parse(line);
  ASSERT_TRUE(v.find("ok")->value.boolean) << line;
  const JsonValue::Member* timing = v.find("timing");
  ASSERT_NE(timing, nullptr) << line;
  EXPECT_GE(timing->value.find("queue_ms")->value.number, 0.0);
  EXPECT_GT(timing->value.find("run_ms")->value.number, 0.0);
  // This request joined nothing: it led its own campaign, so its cell
  // count is the full grid (2 placements x 1 repeat).
  EXPECT_EQ(timing->value.find("cells_run")->value.magnitude, 2u);

  // Off by default: a response carries no timing block (wall-clock
  // numbers would break byte-stable transcripts).
  const std::string plain =
      server.submit_line(small_advise("plain").to_json_line()).get();
  EXPECT_EQ(plain.find("\"timing\""), std::string::npos) << plain;

  // A memo hit runs zero cells — per-request accounting, not a copy of
  // the global counter.
  Request warm = small_advise("warm");
  warm.timing = true;
  const JsonValue w =
      json_parse(server.submit_line(warm.to_json_line()).get());
  EXPECT_EQ(w.find("timing")->value.find("cells_run")->value.magnitude, 0u);

  // The ledger aggregates: cells and times accumulate across requests.
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.cells_run, 2u);
  EXPECT_GT(stats.run_ms_total, 0.0);
  EXPECT_NE(stats.render().find("cells run           2"),
            std::string::npos);
}

TEST(ServeServer, SharedCacheDirWarmsAcrossServerInstances) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "mnemo_serve_shared_cache";
  fs::remove_all(dir);
  ServeOptions options;
  options.cache_dir = dir.string();
  {
    Server cold(options);
    ASSERT_TRUE(ask(cold, small_advise("cold")).find("ok")->value.boolean);
  }
  const std::size_t before = core::campaign_totals().cells;
  {
    Server warm(options);
    ASSERT_TRUE(ask(warm, small_advise("warm")).find("ok")->value.boolean);
    // The disk cache satisfied the measure stage: the "lead" replayed
    // nothing.
    EXPECT_EQ(core::campaign_totals().cells, before);
  }
  fs::remove_all(dir);
}

/// A Table III workload at its default spec (paper scale, no keys,
/// requests or seed given): the traffic the trace memo keeps.
Request default_request(std::string id, RequestOp op) {
  Request req;
  req.id = std::move(id);
  req.op = op;
  req.repeats = 1;
  return req;
}

TEST(ServeServer, SameSpecOnOtherStoresAndSlosReusesItsTrace) {
  Server server(ServeOptions{});
  Request first = default_request("first", RequestOp::kAdvise);
  Request second = default_request("second", RequestOp::kAdvise);
  second.store = "cachet";
  second.slo = 0.2;
  const std::string first_answer =
      ask(server, first).find("output")->value.string;
  const std::string second_answer =
      ask(server, second).find("output")->value.string;
  EXPECT_EQ(server.stats().trace_memo_hits, 1u);
  // A memoized trace answers like a freshly generated one.
  for (const auto& [req, answer] :
       {std::pair{first, first_answer}, std::pair{second, second_answer}}) {
    Server fresh(ServeOptions{});
    EXPECT_EQ(ask(fresh, req).find("output")->value.string, answer)
        << req.id;
    EXPECT_EQ(fresh.stats().trace_memo_hits, 0u);
  }
}

TEST(ServeServer, OnlyDefaultSpecsAreMemoized) {
  Server server(ServeOptions{});
  Request custom = small_advise("custom");  // keys and requests given
  custom.op = RequestOp::kCharacterize;
  Request reseeded = default_request("reseeded", RequestOp::kCharacterize);
  reseeded.seed = 99;
  for (const Request& req : {custom, reseeded, custom, reseeded}) {
    ASSERT_TRUE(ask(server, req).find("ok")->value.boolean) << req.id;
  }
  Request unknown = default_request("unknown", RequestOp::kCharacterize);
  unknown.workload = "no-such-workload";
  Request one_key = small_advise("one-key");
  one_key.keys = 1;  // a one-key hotspot
  for (const Request& req : {unknown, one_key, unknown, one_key}) {
    EXPECT_EQ(ask(server, req).find("error")->value.find("code")->value.string,
              "invalid_argument")
        << req.id;
  }
  EXPECT_EQ(server.stats().trace_memo_hits, 0u);
  // Each Table III workload at its default spec is kept after its first use.
  for (const std::string name : {"news_feed", "timeline", "news_feed"}) {
    Request req = default_request(name, RequestOp::kCharacterize);
    req.workload = name;
    ASSERT_TRUE(ask(server, req).find("ok")->value.boolean) << name;
  }
  EXPECT_EQ(server.stats().trace_memo_hits, 1u);
}

TEST(ServeServer, ConcurrentFirstUsesShareOneMemoizedTrace) {
  ServeOptions options;
  options.threads = 4;
  Server server(std::move(options));
  const Request req = default_request("c", RequestOp::kCharacterize);
  std::vector<std::future<std::string>> answers;
  for (int i = 0; i < 8; ++i) {
    answers.push_back(server.submit_line(req.to_json_line()));
  }
  std::string first;
  for (std::future<std::string>& f : answers) {
    const JsonValue v = json_parse(f.get());
    ASSERT_TRUE(v.find("ok")->value.boolean);
    if (first.empty()) first = v.find("output")->value.string;
    EXPECT_EQ(v.find("output")->value.string, first);
  }
  // Concurrent misses may each generate, but the memo keeps one trace,
  // and every later request takes it.
  const std::uint64_t hits = server.stats().trace_memo_hits;
  EXPECT_LT(hits, 8u);
  ASSERT_TRUE(ask(server, req).find("ok")->value.boolean);
  EXPECT_EQ(server.stats().trace_memo_hits, hits + 1);
}

TEST(ServeServer, MemoizedTraceKeysLikeAFreshOne) {
  workload::WorkloadSpec spec = workload::paper_workload("trending");
  spec.key_count = 150;
  spec.request_count = 1500;
  const workload::Trace trace = workload::Trace::generate(spec);
  const core::Session fresh(trace, core::SessionConfig{});
  const core::Session keyed(core::KeyedTrace(trace), core::SessionConfig{});
  EXPECT_EQ(keyed.trace_key(), fresh.trace_key());
  EXPECT_EQ(keyed.measure_key(), fresh.measure_key());
}

}  // namespace
}  // namespace mnemo::serve
