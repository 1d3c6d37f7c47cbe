#include "serve/socket.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"

namespace mnemo::serve {
namespace {

namespace fs = std::filesystem;

/// Unique per process, so concurrent test runs never share a socket.
std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "/mnemo_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A connected client fd; retries while serve() is still binding.
int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

/// Send one request line on `fd` and read its one response line.
std::string round_trip(int fd, const std::string& request) {
  const std::string line = request + "\n";
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    return {};
  }
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') response += c;
  return response;
}

/// One short-lived connection: connect, ask for the ledger, hang up.
std::string ask_stats(const std::string& path, const std::string& id) {
  const int fd = connect_to(path);
  if (fd < 0) return {};
  std::string response =
      round_trip(fd, R"({"id":")" + id + R"(","op":"stats"})");
  ::close(fd);
  return response;
}

/// This process's virtual size, from /proc/self/status.
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string field;
  while (status >> field) {
    if (field == "VmSize:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib;
    }
  }
  return 0;
}

/// glibc reserves a 64 MiB malloc arena of address space for a thread that
/// allocates while every existing arena belongs to another live thread,
/// and keeps it after that thread exits. Running this many allocating
/// threads at once leaves spare arenas behind, so a VmSize measurement
/// afterwards sees the code under test, not how many threads happened to
/// overlap.
void prime_malloc_arenas() {
  constexpr int kThreads = 16;
  static std::atomic<void*> sink{nullptr};
  std::latch all_allocated(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&all_allocated] {
      void* block = std::malloc(1024);
      sink.store(block);
      all_allocated.arrive_and_wait();
      std::free(block);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// serve() on its own thread for the test's lifetime; stops and joins.
class RunningEndpoint {
 public:
  RunningEndpoint(Server& server, const std::string& path)
      : endpoint_(server, path),
        served_(std::async(std::launch::async,
                           [this] { return endpoint_.serve(); })) {}
  ~RunningEndpoint() {
    endpoint_.stop();
    if (served_.valid()) served_.wait();
  }

  SocketEndpoint& endpoint() { return endpoint_; }
  std::future<util::Status>& served() { return served_; }

 private:
  SocketEndpoint endpoint_;
  std::future<util::Status> served_;
};

ServeOptions small_options() {
  ServeOptions options;
  options.threads = 1;
  return options;
}

TEST(ServeSocket, AnswersAStatsRequest) {
  Server server(small_options());
  const std::string path = socket_path("stats");
  RunningEndpoint running(server, path);
  const std::string response = ask_stats(path, "s1");
  ASSERT_FALSE(response.empty());
  const JsonValue v = json_parse(response);
  EXPECT_EQ(v.find("id")->value.string, "s1");
  ASSERT_TRUE(v.find("ok")->value.boolean);
  EXPECT_NE(v.find("output")->value.string.find("serve stats"),
            std::string::npos);
}

// Each connection runs on its own thread. An ended connection's thread
// must be joined (and its fd closed) when the connection ends, not when
// the endpoint stops: an unjoined thread keeps its whole stack mapped,
// about 8 MiB of address space per connection ever served.
TEST(ServeSocket, EndedConnectionsReleaseTheirThreads) {
  prime_malloc_arenas();
  Server server(small_options());
  const std::string path = socket_path("reap");
  RunningEndpoint running(server, path);
  ASSERT_FALSE(ask_stats(path, "warm").empty());
  const std::uint64_t before = vm_size_kib();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 32; ++i) {
    ASSERT_FALSE(ask_stats(path, "c" + std::to_string(i)).empty()) << i;
  }
  const std::uint64_t grown = vm_size_kib() - before;
  EXPECT_LT(grown, 64u * 1024u)
      << "VmSize grew " << grown << " KiB over 32 sequential connections";
}

TEST(ServeSocket, StopReturnsWithAnIdleClientConnected) {
  Server server(small_options());
  const std::string path = socket_path("idle");
  RunningEndpoint running(server, path);
  const int idle = connect_to(path);
  ASSERT_GE(idle, 0);
  // One answered request proves the connection was accepted; then the
  // client goes quiet without hanging up.
  const bool answered =
      !round_trip(idle, R"({"id":"i","op":"stats"})").empty();
  running.endpoint().stop();
  std::future<util::Status>& served = running.served();
  const std::future_status settled =
      served.wait_for(std::chrono::seconds(30));
  // The server hung up on the idle client: its next read is EOF.
  char c = 0;
  const ssize_t n =
      settled == std::future_status::ready ? ::read(idle, &c, 1) : -1;
  ::close(idle);  // frees a stuck serve() so the test cannot hang
  EXPECT_TRUE(answered);
  ASSERT_EQ(settled, std::future_status::ready);
  EXPECT_TRUE(served.get().ok());
  EXPECT_EQ(n, 0);
  EXPECT_FALSE(fs::exists(path)) << "the socket file is removed";
}

}  // namespace
}  // namespace mnemo::serve
