#pragma once

#include <atomic>
#include <string>

#include "serve/server.hpp"
#include "util/status.hpp"

namespace mnemo::serve {

/// Unix-domain-socket front end for a Server: accepts connections on
/// `path` and runs the line protocol (Server::serve_stream) on each, one
/// thread per connection. All connections share the Server — and thus
/// the artifact store, the single-flight memo, and the backpressure
/// budget. A connection's thread is joined and its fd closed as soon as
/// the connection ends, so a long-running endpoint holds state only for
/// its open connections.
class SocketEndpoint {
 public:
  /// Borrows `server`; it must outlive the endpoint.
  SocketEndpoint(Server& server, std::string path);
  ~SocketEndpoint();

  SocketEndpoint(const SocketEndpoint&) = delete;
  SocketEndpoint& operator=(const SocketEndpoint&) = delete;

  /// Bind, listen and accept until stop(). Replaces a stale socket file
  /// at `path`. Returns non-ok on bind/listen failures. On return every
  /// connection thread has been joined and the socket file removed.
  [[nodiscard]] util::Status serve();

  /// Unblock serve() from another thread (or a signal handler — only
  /// async-signal-safe calls are made). Idempotent.
  void stop();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Wake serve()'s poll loop: one byte into the wake-up pipe.
  /// Async-signal-safe.
  void wake() noexcept;

  Server& server_;
  std::string path_;
  std::atomic<bool> stopping_{false};
  /// Self-pipe serve() polls beside the listening socket: stop() and
  /// every ending connection write to it. It lives as long as the
  /// endpoint, so a late stop() never writes to a reused fd number.
  int wake_[2] = {-1, -1};
};

}  // namespace mnemo::serve
