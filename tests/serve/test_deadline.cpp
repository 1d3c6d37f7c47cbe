// Deadline + cancellation behavior of the serve layer (tentpole
// acceptance: a deadline-exceeded request returns a typed response while
// other requests complete with zero partial artifacts and bit-identical
// answers). Chaos slow cells (faultinject) make campaigns reliably
// outlive short deadlines without real-time guesswork.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "faultinject/io_fault.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/single_flight.hpp"
#include "util/cancel.hpp"

namespace mnemo::serve {
namespace {

namespace fs = std::filesystem;

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

std::string error_code(const JsonValue& response) {
  return response.find("error")->value.find("code")->value.string;
}

/// small_advise with a 1 ms deadline; paired with hold_past_deadline it
/// has always lapsed before the request's first cancellation point.
Request late_advise(std::string id) {
  Request req = small_advise(std::move(id));
  req.deadline_ms = 1;
  return req;
}

/// on_request seam: holds each request on its worker well past a 1 ms
/// deadline before the request does any work.
void hold_past_deadline(const Request&) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

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

TEST(ServeDeadline, ExpiredTokenAnswersTypedDeadlineExceeded) {
  ServeOptions options;
  options.on_request = hold_past_deadline;
  Server server(std::move(options));
  const JsonValue v = ask(server, late_advise("late"));
  EXPECT_FALSE(v.find("ok")->value.boolean);
  EXPECT_EQ(error_code(v), "deadline_exceeded");
  EXPECT_EQ(v.find("id")->value.string, "late");
  EXPECT_EQ(server.stats().deadline_hits, 1u);
  EXPECT_EQ(server.stats().canceled, 0u);
}

TEST(ServeDeadline, CanceledRequestPublishesNothingAndOthersStayIdentical) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "mnemo_deadline_no_partial";
  fs::remove_all(dir);
  ServeOptions options;
  options.cache_dir = dir.string();
  options.on_request = hold_past_deadline;
  Server server(std::move(options));

  EXPECT_EQ(error_code(ask(server, late_advise("late"))),
            "deadline_exceeded");
  // Zero partial artifacts: the canceled request reached no save point.
  EXPECT_FALSE(fs::exists(dir) &&
               !fs::is_empty(dir));

  // The same server still answers an undeadlined request with the exact
  // CLI bytes — the canceled flight poisoned no shared state.
  const JsonValue good = ask(server, small_advise("fine"));
  ASSERT_TRUE(good.find("ok")->value.boolean);
  EXPECT_EQ(good.find("output")->value.string,
            cli_answer({"advise", "--workload", "trending", "--keys", "150",
                        "--requests", "1500", "--repeats", "1"}));
  fs::remove_all(dir);
}

TEST(ServeDeadline, RequestDeadlineFieldCutsASlowCampaignShort) {
  // Chaos stalls make every campaign cell take >= 30ms; a 1ms request
  // deadline therefore always lapses mid-campaign. The scheduler's
  // deadline timer cancels the token, the campaign starts no further
  // cells, and the request answers typed — skipped, never killed.
  faultinject::IoFaultPlan plan;
  plan.slow_cell_rate = 1.0;
  plan.slow_cell_ms = 30.0;
  faultinject::ScopedIoFaults chaos(plan);

  Server server(ServeOptions{});
  Request req = small_advise("rushed");
  req.deadline_ms = 1;
  const JsonValue v = ask(server, req);
  EXPECT_FALSE(v.find("ok")->value.boolean);
  EXPECT_EQ(error_code(v), "deadline_exceeded");
  EXPECT_EQ(v.find("id")->value.string, "rushed");
  EXPECT_EQ(server.stats().deadline_hits, 1u);
}

TEST(ServeDeadline, ServerDefaultDeadlineAppliesWhenRequestCarriesNone) {
  faultinject::IoFaultPlan plan;
  plan.slow_cell_rate = 1.0;
  plan.slow_cell_ms = 30.0;
  faultinject::ScopedIoFaults chaos(plan);

  ServeOptions options;
  options.default_deadline_ms = 1;
  Server server(std::move(options));
  EXPECT_EQ(error_code(ask(server, small_advise("default"))),
            "deadline_exceeded");
}

TEST(ServeDeadline, RequestDeadlineOverridesTheServerDefault) {
  // A generous per-request deadline beats a hair-trigger server default:
  // the request completes and matches the CLI bit for bit.
  ServeOptions options;
  options.default_deadline_ms = 1;
  Server server(std::move(options));
  Request req = small_advise("patient");
  req.deadline_ms = 600'000;
  const std::string line = server.submit_line(req.to_json_line()).get();
  const JsonValue v = json_parse(line);
  ASSERT_TRUE(v.find("ok")->value.boolean) << line;
  EXPECT_EQ(server.stats().deadline_hits, 0u);
  EXPECT_EQ(server.stats().ok, 1u);
}

TEST(ServeDeadline, StatsLedgerRendersTheDeadlineRows) {
  ServeOptions options;
  options.on_request = hold_past_deadline;
  Server server(std::move(options));
  (void)ask(server, late_advise("late"));
  const std::string ledger = server.stats().render();
  EXPECT_NE(ledger.find("deadline exceeded"), std::string::npos);
  EXPECT_NE(ledger.find("canceled"), std::string::npos);
  EXPECT_NE(ledger.find("dropped connections"), std::string::npos);
}

/// A fresh artifact for a leader to publish.
std::shared_ptr<const core::MeasureArtifact> artifact() {
  return std::make_shared<const core::MeasureArtifact>();
}

TEST(SingleFlightCancel, CanceledCallerNeverBecomesLeader) {
  MeasureCache cache;
  util::CancelToken token;
  token.cancel({util::ErrorCode::kCanceled, "too late"});
  EXPECT_THROW((void)cache.try_acquire("key", &token, [] {}),
               util::CanceledError);
  // The refusal claimed nothing: the next caller leads.
  const std::optional<MeasureCache::Lease> lease =
      cache.try_acquire("key", nullptr, {});
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(lease->leader);
}

TEST(SingleFlightCancel, MemoHitIsServedEvenWhenCanceled) {
  // Adopting a finished artifact costs nothing, so a canceled caller
  // still gets it — cancellation stops new work, not free answers.
  MeasureCache cache;
  ASSERT_TRUE(cache.try_acquire("key", nullptr, {})->leader);
  cache.publish("key", artifact());

  util::CancelToken token{util::Deadline::after_ms(0)};
  const std::optional<MeasureCache::Lease> hit =
      cache.try_acquire("key", &token, [] {});
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->leader);
  EXPECT_NE(hit->artifact, nullptr);
}

TEST(SingleFlightCancel, CanceledJoinerWakesAndThrowsWhileLeaderFinishes) {
  // A joiner parked on an in-flight leader is woken by its token's cancel
  // (the scheduler's deadline timer does exactly this), throws the typed
  // error when it re-enters, and the leader's flight is untouched — later
  // callers adopt its artifact.
  MeasureCache cache;
  ASSERT_TRUE(cache.try_acquire("key", nullptr, {})->leader);

  util::CancelToken token;
  int wakes = 0;
  ASSERT_FALSE(cache.try_acquire("key", &token, [&] { ++wakes; }).has_value());
  token.cancel({util::ErrorCode::kCanceled, "timer"});
  EXPECT_EQ(wakes, 1);
  try {
    (void)cache.try_acquire("key", &token, [&] { ++wakes; });
    FAIL() << "canceled joiner must throw, not park or lead";
  } catch (const util::CanceledError& e) {
    EXPECT_EQ(e.error().code, util::ErrorCode::kCanceled);
  }

  cache.publish("key", artifact());
  EXPECT_EQ(wakes, 1);
  const std::optional<MeasureCache::Lease> after =
      cache.try_acquire("key", nullptr, {});
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->leader);
  EXPECT_NE(after->artifact, nullptr);
}

TEST(SingleFlightCancel, ParkedWakeRunsExactlyOnceWhicheverFiresFirst) {
  // A parked waiter is released by its leader (publish or abandon) and by
  // its own token's cancel. Leader first, cancel first, or both racing on
  // two threads: the wake runs exactly once.
  enum class Order { kLeaderFirst, kCancelFirst, kRace };
  for (const bool publish : {true, false}) {
    for (const Order order :
         {Order::kLeaderFirst, Order::kCancelFirst, Order::kRace}) {
      MeasureCache cache;
      ASSERT_TRUE(cache.try_acquire("key", nullptr, {})->leader);
      util::CancelToken token;
      std::atomic<int> wakes{0};
      ASSERT_FALSE(
          cache.try_acquire("key", &token, [&] { ++wakes; }).has_value());
      const auto leader_settles = [&] {
        if (publish) {
          cache.publish("key", artifact());
        } else {
          cache.abandon("key");
        }
      };
      const auto cancel = [&] {
        token.cancel({util::ErrorCode::kCanceled, "timer"});
      };
      switch (order) {
        case Order::kLeaderFirst:
          leader_settles();
          cancel();
          break;
        case Order::kCancelFirst:
          cancel();
          leader_settles();
          break;
        case Order::kRace: {
          std::thread canceler(cancel);
          leader_settles();
          canceler.join();
          break;
        }
      }
      EXPECT_EQ(wakes.load(), 1)
          << (publish ? "publish" : "abandon") << " order "
          << static_cast<int>(order);
    }
  }
}

TEST(SingleFlightCancel, AfterAnAbandonTheFirstWaiterToReEnterLeads) {
  // An abandon wakes every waiter; the first to re-enter becomes the
  // replacement leader and the next parks behind it, so a failed leader
  // never wedges the key.
  MeasureCache cache;
  ASSERT_TRUE(cache.try_acquire("key", nullptr, {})->leader);
  int first_wakes = 0;
  int second_wakes = 0;
  ASSERT_FALSE(
      cache.try_acquire("key", nullptr, [&] { ++first_wakes; }).has_value());
  ASSERT_FALSE(
      cache.try_acquire("key", nullptr, [&] { ++second_wakes; }).has_value());
  cache.abandon("key");
  EXPECT_EQ(first_wakes, 1);
  EXPECT_EQ(second_wakes, 1);

  const std::optional<MeasureCache::Lease> first =
      cache.try_acquire("key", nullptr, {});
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->leader);
  ASSERT_FALSE(
      cache.try_acquire("key", nullptr, [&] { ++second_wakes; }).has_value());
  cache.publish("key", artifact());
  EXPECT_EQ(second_wakes, 2);
  const std::optional<MeasureCache::Lease> second =
      cache.try_acquire("key", nullptr, {});
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->leader);
  EXPECT_NE(second->artifact, nullptr);
}

}  // namespace
}  // namespace mnemo::serve
