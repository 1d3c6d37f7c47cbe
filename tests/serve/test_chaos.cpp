// Chaos harness (tentpole layer 3): deterministic fault injection at the
// I/O boundary — injected write failures, torn writes, slow cells,
// client disconnects, SIGTERM — proving the consultant service degrades
// gracefully: every request settles with a typed answer, damaged caches
// degrade to cache misses, and answers stay bit-identical to the CLI.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "core/campaign.hpp"
#include "faultinject/io_fault.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

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

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// An output stream whose sink dies permanently after `fail_after`
/// characters — a client that hung up mid-response.
class DyingSinkBuf : public std::streambuf {
 public:
  explicit DyingSinkBuf(std::size_t fail_after) : budget_(fail_after) {}

 protected:
  int_type overflow(int_type c) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return traits_type::not_eof(c);
  }

 private:
  std::size_t budget_;
};

TEST(ServeChaos, InjectedWriteFailuresNeverChangeTheAnswer) {
  // Every artifact save fails (ENOSPC-style); the cache is best-effort,
  // so the response must still be the exact uncached answer.
  const fs::path dir = fresh_dir("mnemo_chaos_write_fail");
  std::string clean_output;
  {
    Server reference(ServeOptions{});
    const JsonValue clean = ask(reference, small_advise("ref"));
    ASSERT_TRUE(clean.find("ok")->value.boolean);
    clean_output = clean.find("output")->value.string;
  }

  faultinject::IoFaultPlan plan;
  plan.write_fail_rate = 1.0;
  faultinject::ScopedIoFaults chaos(plan);
  ServeOptions options;
  options.cache_dir = dir.string();
  Server server(std::move(options));
  const JsonValue under_chaos = ask(server, small_advise("chaos"));
  ASSERT_TRUE(under_chaos.find("ok")->value.boolean);
  EXPECT_EQ(under_chaos.find("output")->value.string, clean_output);
  EXPECT_GT(chaos.injector().stats().write_failures, 0u);

  // Nothing valid was persisted: the directory holds no artifacts.
  if (fs::exists(dir)) {
    for (const auto& e : fs::directory_iterator(dir)) {
      EXPECT_NE(e.path().extension().string(), ".mna") << e.path();
    }
  }
  fs::remove_all(dir);
}

TEST(ServeChaos, TornWritesLeaveOnlyLitterAndAWarmRunRecomputes) {
  const fs::path dir = fresh_dir("mnemo_chaos_torn");
  std::string cold_output;
  {
    faultinject::IoFaultPlan plan;
    plan.torn_write_rate = 1.0;
    plan.torn_fraction = 0.3;
    faultinject::ScopedIoFaults chaos(plan);
    ServeOptions options;
    options.cache_dir = dir.string();
    Server server(std::move(options));
    const JsonValue resp = ask(server, small_advise("cold"));
    ASSERT_TRUE(resp.find("ok")->value.boolean);
    cold_output = resp.find("output")->value.string;
    EXPECT_GT(chaos.injector().stats().torn_writes, 0u);
  }
  // The atomic-write discipline held even under chaos: torn temps, but
  // not one torn *artifact* — the rename simply never happened.
  std::size_t temps = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    EXPECT_NE(name.find(".tmp."), std::string::npos) << name;
    ++temps;
  }
  EXPECT_GT(temps, 0u);

  // Chaos gone: a warm server finds an empty cache, replays the campaign
  // (a torn cache degrades to cold, never to a wrong answer) and lands on
  // the identical output.
  const std::size_t before = core::campaign_totals().cells;
  ServeOptions options;
  options.cache_dir = dir.string();
  Server warm(std::move(options));
  const JsonValue resp = ask(warm, small_advise("warm"));
  ASSERT_TRUE(resp.find("ok")->value.boolean);
  EXPECT_EQ(resp.find("output")->value.string, cold_output);
  EXPECT_GT(core::campaign_totals().cells, before);
  fs::remove_all(dir);
}

TEST(ServeChaos, CliFsckQuarantinesChaosDamageExactlyOnce) {
  // End-to-end acceptance: damage a populated cache the way crashes do
  // (torn final file + dead-writer temp), then drive `mnemo fsck` like an
  // operator would.
  const fs::path dir = fresh_dir("mnemo_chaos_fsck_cli");
  {
    ServeOptions options;
    options.cache_dir = dir.string();
    Server server(std::move(options));
    ASSERT_TRUE(ask(server, small_advise("seed")).find("ok")->value.boolean);
  }
  std::vector<fs::path> artifacts;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".mna") artifacts.push_back(e.path());
  }
  ASSERT_GE(artifacts.size(), 2u);
  fs::resize_file(artifacts[0], fs::file_size(artifacts[0]) / 2);
  std::ofstream(dir / "measure-feed.mna.tmp.1073741824.0",
                std::ios::binary)
      << "half";  // pid 2^30: no such process

  // Dry run: reports damage, exit 1, touches nothing.
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(cli::run({"fsck", "--cache-dir", dir.string(), "--dry-run"},
                     out, err),
            1);
  EXPECT_NE(out.str().find("truncated frame"), std::string::npos);
  EXPECT_TRUE(fs::exists(artifacts[0]));

  // Repair run: quarantines the torn artifact, reaps the orphan, exit 0.
  out.str("");
  EXPECT_EQ(cli::run({"fsck", "--cache-dir", dir.string()}, out, err), 0);
  EXPECT_NE(out.str().find("1 quarantined"), std::string::npos);
  EXPECT_NE(out.str().find("1 temp files reaped"), std::string::npos);
  EXPECT_FALSE(fs::exists(artifacts[0]));
  EXPECT_TRUE(
      fs::exists(dir / "quarantine" / artifacts[0].filename().string()));

  // Idempotent: a second pass finds a clean directory.
  out.str("");
  EXPECT_EQ(cli::run({"fsck", "--cache-dir", dir.string(), "--dry-run"},
                     out, err),
            0);
  EXPECT_NE(out.str().find("0 quarantined"), std::string::npos);

  // Usage error without a directory.
  EXPECT_EQ(cli::run({"fsck"}, out, err), 2);
  fs::remove_all(dir);
}

TEST(ServeChaos, ServerStartupFsckHealsADamagedCache) {
  const fs::path dir = fresh_dir("mnemo_chaos_startup_fsck");
  std::string clean_output;
  {
    ServeOptions options;
    options.cache_dir = dir.string();
    Server server(std::move(options));
    const JsonValue resp = ask(server, small_advise("seed"));
    ASSERT_TRUE(resp.find("ok")->value.boolean);
    clean_output = resp.find("output")->value.string;
  }
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".mna") {
      fs::resize_file(e.path(), 2);  // every artifact torn
    }
  }
  ServeOptions options;
  options.cache_dir = dir.string();
  Server healed(std::move(options));  // fsck_on_start quarantines the damage
  const JsonValue resp = ask(healed, small_advise("after"));
  ASSERT_TRUE(resp.find("ok")->value.boolean);
  EXPECT_EQ(resp.find("output")->value.string, clean_output);
  EXPECT_TRUE(fs::exists(dir / "quarantine"));
  fs::remove_all(dir);
}

TEST(ServeChaos, ServerWithoutCacheLeavesADamagedCacheUntouched) {
  const fs::path dir = fresh_dir("mnemo_chaos_no_cache_fsck");
  std::string clean_output;
  {
    ServeOptions options;
    options.cache_dir = dir.string();
    Server server(std::move(options));
    const JsonValue resp = ask(server, small_advise("seed"));
    ASSERT_TRUE(resp.find("ok")->value.boolean);
    clean_output = resp.find("output")->value.string;
  }
  std::vector<fs::path> torn;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".mna") {
      fs::resize_file(e.path(), 2);
      torn.push_back(e.path());
    }
  }
  ASSERT_FALSE(torn.empty());
  ServeOptions options;
  options.cache_dir = dir.string();
  options.use_cache = false;  // never reads the dir, so never scans it
  Server bypassing(std::move(options));
  const JsonValue resp = ask(bypassing, small_advise("after"));
  ASSERT_TRUE(resp.find("ok")->value.boolean);
  EXPECT_EQ(resp.find("output")->value.string, clean_output);
  for (const fs::path& p : torn) {
    EXPECT_TRUE(fs::exists(p)) << p;
    EXPECT_EQ(fs::file_size(p), 2u) << p;
  }
  EXPECT_FALSE(fs::exists(dir / "quarantine"));
  fs::remove_all(dir);
}

TEST(ServeChaos, ClientDisconnectIsCountedAndServiceContinues) {
  ServeOptions options;
  options.threads = 2;
  Server server(std::move(options));
  std::istringstream in(small_advise("a").to_json_line() + "\n" +
                        small_advise("b").to_json_line() + "\n" +
                        small_advise("c").to_json_line() + "\n");
  DyingSinkBuf dead(0);  // client vanishes before the first byte lands
  std::ostream sink(&dead);
  server.serve_stream(in, sink);

  // Every admitted request still completed (memo/stats updated); the
  // vanished client is one counted disconnect, not three.
  EXPECT_EQ(server.stats().requests, 3u);
  EXPECT_EQ(server.stats().ok, 3u);
  EXPECT_EQ(server.stats().disconnects, 1u);

  // The server object is still healthy for the next client. One lead paid
  // for the campaign; everyone else got a free answer (with two workers a
  // duplicate may join the in-flight lease rather than memo-hit later).
  EXPECT_TRUE(ask(server, small_advise("next")).find("ok")->value.boolean);
  EXPECT_EQ(server.stats().measure_leads, 1u);
  EXPECT_EQ(server.stats().single_flight_joins +
                server.stats().measure_memo_hits,
            3u);
}

TEST(ServeChaos, MixedDeadlinesUnderFullChaosAllSettleTyped) {
  // The TSan/ASan proving ground: slow cells + failing writes + a mix of
  // hair-trigger and generous deadlines, all in flight at once. Graceful
  // degradation means every future settles with ok or a typed error —
  // no hangs, no crashes, no untyped failures.
  faultinject::IoFaultPlan plan;
  plan.slow_cell_rate = 0.5;
  plan.slow_cell_ms = 10.0;
  plan.write_fail_rate = 0.5;
  faultinject::ScopedIoFaults chaos(plan);

  const fs::path dir = fresh_dir("mnemo_chaos_mixed");
  ServeOptions options;
  options.threads = 4;
  options.cache_dir = dir.string();
  Server server(std::move(options));

  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 12; ++i) {
    // Two-step concat: GCC 12's -Wrestrict false positive (PR105651)
    // fires on `"m" + std::to_string(i)` at -O2.
    std::string id = "m";
    id += std::to_string(i);
    Request req = small_advise(id);
    req.seed = static_cast<std::uint64_t>(1 + i % 3);  // 3 distinct keys
    req.deadline_ms = (i % 2 == 0) ? 1 : 600'000;
    futures.push_back(server.submit_line(req.to_json_line()));
  }
  std::size_t ok = 0;
  std::size_t deadline = 0;
  for (std::future<std::string>& f : futures) {
    const JsonValue v = json_parse(f.get());
    if (v.find("ok")->value.boolean) {
      ++ok;
    } else {
      EXPECT_EQ(v.find("error")->value.find("code")->value.string,
                "deadline_exceeded");
      ++deadline;
    }
  }
  EXPECT_EQ(ok + deadline, 12u);
  EXPECT_EQ(server.stats().deadline_hits, deadline);
  // The generous-deadline half always completes.
  EXPECT_GE(ok, 6u);
  fs::remove_all(dir);
}

/// Connect to a Unix socket, retrying until the server binds it.
int connect_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
  return -1;
}

std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    line += c;
  }
  return line;
}

TEST(ServeChaos, SigtermDrainsTheSocketServerAndPrintsTheLedger) {
  // Satellite (b): SIGTERM against a live `mnemo serve --socket` answers
  // the in-flight client, prints the stats ledger and exits 0. raise()
  // exercises the real signal handler installed by cmd_serve.
  const fs::path sock =
      fs::path(testing::TempDir()) / "mnemo_chaos_sigterm.sock";
  fs::remove(sock);

  std::ostringstream out;
  std::ostringstream err;
  int exit_code = -1;
  std::thread serve_thread([&] {
    exit_code = cli::run({"serve", "--socket", sock.string()}, out, err);
  });

  const int fd = connect_client(sock.string());
  ASSERT_GE(fd, 0);
  const std::string line = small_advise("pre-sigterm").to_json_line() + "\n";
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  const std::string resp = read_line(fd);
  EXPECT_TRUE(json_parse(resp).find("ok")->value.boolean) << resp;

  ::raise(SIGTERM);
  serve_thread.join();
  ::close(fd);

  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(err.str().find("requests"), std::string::npos)
      << "signal-driven shutdown must print the ledger:\n"
      << err.str();
  EXPECT_FALSE(fs::exists(sock));  // socket file unlinked on the way out
}

}  // namespace
}  // namespace mnemo::serve
