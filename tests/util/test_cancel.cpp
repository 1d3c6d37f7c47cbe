#include "util/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace mnemo::util {
namespace {

TEST(Deadline, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(Deadline::never().armed());
}

TEST(Deadline, AfterZeroMsIsImmediatelyExpired) {
  const Deadline d = Deadline::after_ms(0);
  EXPECT_TRUE(d.armed());
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, FutureDeadlineIsArmedButNotExpired) {
  const Deadline d = Deadline::after_ms(60'000);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.when(), std::chrono::steady_clock::now());
}

TEST(CancelToken, FreshTokenIsNotCanceled) {
  const CancelToken token;
  EXPECT_FALSE(token.canceled());
  EXPECT_EQ(token.reason().code, ErrorCode::kOk);
  EXPECT_NO_THROW(token.check());
}

TEST(CancelToken, CancelSetsFlagReasonAndCheckThrows) {
  CancelToken token;
  token.cancel({ErrorCode::kCanceled, "client gone"});
  EXPECT_TRUE(token.canceled());
  EXPECT_EQ(token.reason().code, ErrorCode::kCanceled);
  EXPECT_EQ(token.reason().message, "client gone");
  try {
    token.check();
    FAIL() << "check() must throw on a canceled token";
  } catch (const CanceledError& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCanceled);
    EXPECT_NE(std::string(e.what()).find("client gone"), std::string::npos);
  }
}

TEST(CancelToken, FirstCancelReasonWins) {
  CancelToken token;
  token.cancel({ErrorCode::kDeadlineExceeded, "first"});
  token.cancel({ErrorCode::kCanceled, "second"});
  EXPECT_EQ(token.reason().code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(token.reason().message, "first");
}

TEST(CancelToken, ExpiredDeadlineCancelsPassively) {
  // No watchdog, no cancel() call: expiry alone makes canceled() answer
  // true and reason() report deadline_exceeded — the property the
  // campaign runner's between-cell checks rely on.
  const CancelToken token{Deadline::after_ms(0)};
  EXPECT_TRUE(token.canceled());
  EXPECT_EQ(token.reason().code, ErrorCode::kDeadlineExceeded);
  EXPECT_THROW(token.check(), CanceledError);
}

TEST(CancelToken, UnexpiredDeadlineDoesNotCancel) {
  const CancelToken token{Deadline::after_ms(60'000)};
  EXPECT_FALSE(token.canceled());
  EXPECT_NO_THROW(token.check());
}

TEST(CancelToken, DeadlineErrorIsTyped) {
  const Error e = CancelToken::deadline_error();
  EXPECT_EQ(e.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(to_string(e.code), "deadline_exceeded");
}

TEST(CancelToken, CallbacksFireExactlyOnceOnCancel) {
  CancelToken token;
  std::atomic<int> fired{0};
  token.on_cancel([&] { ++fired; });
  EXPECT_EQ(fired.load(), 0);
  token.cancel({ErrorCode::kCanceled, "x"});
  EXPECT_EQ(fired.load(), 1);
  token.cancel({ErrorCode::kCanceled, "again"});  // idempotent: no refire
  EXPECT_EQ(fired.load(), 1);
}

TEST(CancelToken, CallbackRegisteredAfterCancelRunsImmediately) {
  CancelToken token;
  token.cancel({ErrorCode::kCanceled, "x"});
  bool ran = false;
  token.on_cancel([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(CancelToken, PassiveExpiryDoesNotRunCallbacks) {
  // Callbacks are the *active* wake-up path; expiry is observed, not
  // pushed. A waiter parked on a deadline-armed token needs something
  // (the scheduler's deadline timer) to call cancel().
  CancelToken token{Deadline::after_ms(0)};
  std::atomic<int> fired{0};
  token.on_cancel([&] { ++fired; });
  EXPECT_TRUE(token.canceled());
  EXPECT_EQ(fired.load(), 0);
  token.cancel(CancelToken::deadline_error());  // the timer's push
  EXPECT_EQ(fired.load(), 1);
}

TEST(CancelToken, ConcurrentCancelRunsCallbacksOnce) {
  for (int round = 0; round < 50; ++round) {
    CancelToken token;
    std::atomic<int> fired{0};
    token.on_cancel([&] { ++fired; });
    std::thread a([&] { token.cancel({ErrorCode::kCanceled, "a"}); });
    std::thread b([&] {
      token.cancel({ErrorCode::kDeadlineExceeded, "b"});
    });
    a.join();
    b.join();
    EXPECT_EQ(fired.load(), 1);
    EXPECT_TRUE(token.canceled());
    // Whichever won, the reason is consistent with some single winner.
    const ErrorCode code = token.reason().code;
    EXPECT_TRUE(code == ErrorCode::kCanceled ||
                code == ErrorCode::kDeadlineExceeded);
  }
}

}  // namespace
}  // namespace mnemo::util
