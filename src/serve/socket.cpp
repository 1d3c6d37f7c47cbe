#include "serve/socket.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <system_error>
#include <thread>
#include <utility>

namespace mnemo::serve {

namespace {

/// iostream adapter over a connected socket fd. Writes use send() with
/// MSG_NOSIGNAL so a client that hangs up mid-response surfaces as a
/// stream error, not SIGPIPE.
class FdBuf : public std::streambuf {
 public:
  explicit FdBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    // EINTR is an interruption, not a hangup: retrying keeps a stray
    // signal from masquerading as client EOF and dropping a connection.
    ssize_t n = 0;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type c) override {
    if (!flush_out()) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

  int sync() override { return flush_out() ? 0 : -1; }

 private:
  bool flush_out() {
    // Full-write loop: short sends continue where they left off, EINTR
    // retries. Only a real error (EPIPE from a vanished client) fails
    // the stream — which serve_stream absorbs as a disconnect.
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::send(fd_, p, static_cast<std::size_t>(pptr() - p),
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return true;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

SocketEndpoint::SocketEndpoint(Server& server, std::string path)
    : server_(server), path_(std::move(path)) {
  // Non-blocking both ways: a signal handler's wake() must never block on
  // a full pipe, and serve() drains it without blocking. On failure the
  // ends stay -1 and serve() reports it.
  if (::pipe2(wake_, O_CLOEXEC | O_NONBLOCK) != 0) wake_[0] = wake_[1] = -1;
}

SocketEndpoint::~SocketEndpoint() {
  for (const int fd : wake_) {
    if (fd >= 0) ::close(fd);
  }
}

util::Status SocketEndpoint::serve() {
  if (wake_[0] < 0) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "socket: no wake-up pipe for " + path_};
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "socket path too long: " + path_};
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  // Non-blocking: poll() may report a connection the client has already
  // abandoned, and accept must then fail instead of blocking the loop.
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       std::string("socket: ") + std::strerror(errno)};
  }
  ::unlink(path_.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 16) < 0) {
    const int err = errno;
    ::close(fd);
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "bind/listen " + path_ + ": " + std::strerror(err)};
  }

  // Every connection not yet reaped. A connection closes its own fd under
  // `mu` and marks it -1, so the shutdown below never touches a number the
  // process may have handed out again.
  struct Connection {
    int fd;
    std::thread thread;
  };
  std::mutex mu;
  std::list<Connection> conns;

  const auto reap_ended = [&] {
    std::list<Connection> ended;
    {
      std::lock_guard lock(mu);
      for (auto it = conns.begin(); it != conns.end();) {
        const auto next = std::next(it);
        if (it->fd < 0) ended.splice(ended.end(), conns, it);
        it = next;
      }
    }
    for (Connection& c : ended) c.thread.join();
  };

  pollfd polled[2] = {{fd, POLLIN, 0}, {wake_[0], POLLIN, 0}};
  while (!stopping_.load(std::memory_order_acquire)) {
    if (::poll(polled, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (polled[1].revents != 0) {
      char drained[64];
      while (::read(wake_[0], drained, sizeof(drained)) > 0) {
      }
      reap_ended();
    }
    if (polled[0].revents == 0) continue;
    const int conn = ::accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    std::lock_guard lock(mu);
    Connection& c = conns.emplace_back(Connection{conn, {}});
    try {
      c.thread = std::thread([this, conn, &c, &mu] {
        {
          FdBuf buf(conn);
          std::istream in(&buf);
          std::ostream out(&buf);
          server_.serve_stream(in, out);
        }
        {
          std::lock_guard done(mu);
          ::close(conn);
          c.fd = -1;
        }
        wake();  // serve() joins this thread next
      });
    } catch (const std::system_error&) {
      // No thread to serve it: hang up on this client, keep serving.
      ::close(conn);
      conns.pop_back();
    }
  }

  // Shutdown: kick every open connection so its serve_stream sees EOF,
  // then join. Admitted requests still complete (graceful drain) — only
  // unread input is abandoned.
  {
    std::lock_guard lock(mu);
    for (const Connection& c : conns) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    }
  }
  for (Connection& c : conns) c.thread.join();
  ::close(fd);
  ::unlink(path_.c_str());
  return {};
}

void SocketEndpoint::stop() {
  // Async-signal-safe: one atomic store plus write(2). The poll loop wakes,
  // observes stopping_, and does the cleanup on its own thread.
  stopping_.store(true, std::memory_order_release);
  wake();
}

void SocketEndpoint::wake() noexcept {
  const char byte = 0;
  if (::write(wake_[1], &byte, 1) < 0) {
    // EAGAIN: the pipe is full, so a wake-up is already pending.
  }
}

}  // namespace mnemo::serve
