#include <gtest/gtest.h>

#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace mnemo::serve {
namespace {

/// The stress workload: 24 requests from 8 client threads over 3 distinct
/// measure keys (workload size / store variations), with duplicates and
/// per-duplicate SLO variations (identical measure key, different advise
/// question). Caching is off, so the only dedup layer is single-flight —
/// the property under test.
std::vector<Request> stress_requests() {
  std::vector<Request> reqs;
  for (int round = 0; round < 8; ++round) {
    for (int variant = 0; variant < 3; ++variant) {
      Request req;
      // Built up in place: the one-expression concatenation trips GCC
      // 12's -Wrestrict false positive (PR105651) at -O2.
      req.id = "r";
      req.id += std::to_string(round);
      req.id += '-';
      req.id += std::to_string(variant);
      req.op = RequestOp::kAdvise;
      req.repeats = 1;
      switch (variant) {
        case 0:
          req.keys = 150;
          req.requests = 1500;
          break;
        case 1:
          req.keys = 120;
          req.requests = 1200;
          break;
        default:
          req.keys = 150;
          req.requests = 1500;
          req.store = "cachet";
          break;
      }
      // Different SLO per round: same measure key, different verdict —
      // joins must still produce the right per-request answer.
      req.slo = 0.05 + 0.01 * round;
      reqs.push_back(std::move(req));
    }
  }
  return reqs;
}

TEST(ServeStress, EightClientsOneReplayPerDistinctKeyBitIdentical) {
  const std::vector<Request> requests = stress_requests();

  // Sequential reference: a one-worker server answering one line at a
  // time, in order. Records the expected response line per id and the
  // campaign cost of covering every distinct measure key exactly once.
  std::map<std::string, std::string> expected;
  const std::size_t before_seq = core::campaign_totals().cells;
  {
    ServeOptions options;
    options.threads = 1;
    options.queue_capacity = requests.size();
    Server sequential(std::move(options));
    for (const Request& req : requests) {
      expected[req.id] = sequential.submit_line(req.to_json_line()).get();
    }
    EXPECT_EQ(sequential.stats().measure_leads, 3u);
  }
  const std::size_t distinct_cells =
      core::campaign_totals().cells - before_seq;
  ASSERT_GT(distinct_cells, 0u);

  // Concurrent run: 8 client threads submitting their slice in parallel.
  const std::size_t before_conc = core::campaign_totals().cells;
  ServeOptions options;
  options.threads = 8;
  options.queue_capacity = requests.size();
  Server server(std::move(options));

  std::vector<std::future<std::string>> responses(requests.size());
  {
    std::vector<std::thread> clients;
    clients.reserve(8);
    for (std::size_t c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < requests.size(); i += 8) {
          responses[i] = server.submit_line(requests[i].to_json_line());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].valid());
    EXPECT_EQ(responses[i].get(), expected[requests[i].id])
        << requests[i].id;
  }

  // Exactly one emulator replay per distinct measure key, despite 8
  // concurrent duplicates of each.
  EXPECT_EQ(core::campaign_totals().cells - before_conc, distinct_cells);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.measure_leads, 3u);
  EXPECT_EQ(stats.single_flight_joins + stats.measure_memo_hits,
            requests.size() - 3u);
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.ok, requests.size());
  EXPECT_EQ(stats.overloaded, 0u);
}

}  // namespace
}  // namespace mnemo::serve
