#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace mnemo::util {

/// A point in (steady) wall-clock time past which work should stop. A
/// default-constructed Deadline never expires; after_ms() arms one. Built
/// on steady_clock so a system clock step can neither fire a deadline
/// early nor park one forever.
class Deadline {
 public:
  Deadline() = default;  ///< never expires

  [[nodiscard]] static Deadline after_ms(std::uint64_t ms) {
    Deadline d;
    d.armed_ = true;
    d.when_ = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(ms);
    return d;
  }
  [[nodiscard]] static Deadline never() { return {}; }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool expired() const noexcept {
    return armed_ && std::chrono::steady_clock::now() >= when_;
  }
  /// The instant the deadline fires; meaningful only when armed().
  [[nodiscard]] std::chrono::steady_clock::time_point when() const noexcept {
    return when_;
  }

 private:
  std::chrono::steady_clock::time_point when_{};
  bool armed_ = false;
};

/// Thrown by cancellation points (CancelToken::check, the campaign
/// runner, single-flight waits) when the token is canceled. Carries the
/// typed reason so catchers can answer with `deadline_exceeded` vs
/// `canceled` without parsing messages.
class CanceledError : public std::runtime_error {
 public:
  explicit CanceledError(Error error)
      : std::runtime_error(error.to_string()), error_(std::move(error)) {}

  [[nodiscard]] const Error& error() const noexcept { return error_; }

 private:
  Error error_;
};

/// Cooperative cancellation, shared between a request's tasks and
/// whoever may cancel it (the scheduler's deadline timer).
/// Two cancellation sources compose:
///
///   - an explicit cancel(reason) — sets the flag and runs registered
///     wake-up callbacks (so a parked waiter, e.g. a single-flight
///     joiner, is woken rather than polled);
///   - an armed Deadline — canceled() starts answering true the moment it
///     expires even if nobody called cancel(), so purely cooperative
///     consumers (the campaign runner checking between cells) observe the
///     deadline without any watchdog thread.
///
/// The token never interrupts anything by force: work must reach a
/// cancellation point (canceled()/check()) to stop, which is what keeps
/// completed campaign cells deterministic.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void set_deadline(Deadline deadline) {
    std::lock_guard lock(mu_);
    deadline_ = deadline;
  }
  [[nodiscard]] Deadline deadline() const {
    std::lock_guard lock(mu_);
    return deadline_;
  }

  /// Cancel with a typed reason. Idempotent: the first reason wins.
  /// Callbacks run exactly once, outside the token's lock.
  void cancel(Error reason);

  /// True once cancel() ran or the deadline expired.
  [[nodiscard]] bool canceled() const;

  /// Why the token is canceled: the explicit reason when cancel() ran,
  /// a deadline_exceeded error when only the deadline expired, kOk
  /// otherwise.
  [[nodiscard]] Error reason() const;

  /// Cancellation point: throws CanceledError(reason()) when canceled.
  void check() const {
    if (canceled()) throw CanceledError(reason());
  }

  /// Register a wake-up to run when cancel() fires (runs immediately,
  /// in the caller's thread, if the token is already flag-canceled).
  /// A callback registered for a deadline-armed token only runs if
  /// something (the scheduler's deadline timer) calls cancel() — expiry
  /// alone is passive.
  void on_cancel(std::function<void()> fn);

  /// The typed error a deadline produces.
  [[nodiscard]] static Error deadline_error();

 private:
  mutable std::mutex mu_;
  bool flagged_ = false;
  Error reason_;
  Deadline deadline_;
  std::vector<std::function<void()>> callbacks_;
};

}  // namespace mnemo::util
