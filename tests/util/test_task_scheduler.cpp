// Dispatch-law property tests for the TaskScheduler (tentpole): EDF
// ordering across groups, weighted-round-robin fairness without
// starvation, run_batch fork-join semantics (exceptions, nesting,
// cooperative help) and the help_until join, cancellation shedding at
// cell boundaries, and the deadline timer queue that replaced the
// watchdog thread.
//
// Ordering tests use a single-worker scheduler plus a gate task: while
// the only worker is parked inside the gate, the test stages a known
// queue shape, then releases the gate and reads back the exact dispatch
// sequence — single-threaded drain order is part of the contract.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/task_scheduler.hpp"

namespace mnemo::util {
namespace {

using Group = TaskScheduler::Group;
using GroupOptions = TaskScheduler::GroupOptions;
using TaskClass = TaskScheduler::TaskClass;

/// Blocks the scheduler's (single) worker inside a task until release()
/// — everything submitted in between queues up behind it.
class Gate {
 public:
  explicit Gate(TaskScheduler& sched) : state_(std::make_shared<State>()) {
    auto group = sched.make_group();
    // The task holds the state by shared_ptr, so the Gate object may be
    // destroyed before the worker finishes unwinding.
    group->submit(TaskClass::kRequest, [st = state_] {
      st->entered.set_value();
      st->released.get_future().wait();
    });
    state_->entered.get_future().wait();  // the worker is now held
  }
  void release() { state_->released.set_value(); }

 private:
  struct State {
    std::promise<void> entered;
    std::promise<void> released;
  };
  std::shared_ptr<State> state_;
};

/// Thread-safe dispatch-order recorder.
class OrderLog {
 public:
  void push(char tag) {
    std::lock_guard lock(mu_);
    order_.push_back(tag);
  }
  [[nodiscard]] std::string str() const {
    std::lock_guard lock(mu_);
    return {order_.begin(), order_.end()};
  }

 private:
  mutable std::mutex mu_;
  std::vector<char> order_;
};

std::shared_ptr<Group> deadline_group(TaskScheduler& sched,
                                      std::uint64_t deadline_ms) {
  GroupOptions opts;
  opts.deadline = Deadline::after_ms(deadline_ms);
  return sched.make_group(opts);
}

TEST(TaskSchedulerDispatch, EarliestDeadlineGroupDispatchesFirst) {
  OrderLog log;
  {
    TaskScheduler sched(1);
    Gate gate(sched);
    // Armed in reverse deadline order; far deadlines so none expires.
    auto far = deadline_group(sched, 300'000);
    auto mid = deadline_group(sched, 200'000);
    auto near = deadline_group(sched, 100'000);
    far->submit(TaskClass::kCell, [&] { log.push('F'); });
    mid->submit(TaskClass::kCell, [&] { log.push('M'); });
    near->submit(TaskClass::kCell, [&] { log.push('N'); });
    gate.release();
  }  // dtor drains
  EXPECT_EQ(log.str(), "NMF");
}

TEST(TaskSchedulerDispatch, DeadlineFreeGroupsDispatchInCreationOrder) {
  OrderLog log;
  {
    TaskScheduler sched(1);
    Gate gate(sched);
    auto first = sched.make_group();
    auto second = sched.make_group();
    // Submitted in reverse creation order: the tie-break is the group's
    // creation sequence, not submission time.
    second->submit(TaskClass::kCell, [&] { log.push('2'); });
    first->submit(TaskClass::kCell, [&] { log.push('1'); });
    gate.release();
  }
  EXPECT_EQ(log.str(), "12");
}

TEST(TaskSchedulerDispatch, SmallDeadlinedGroupOvertakesABigBacklog) {
  // A big deadline-free group has 6 cells queued before a small
  // deadline-armed group arrives with 2. EDF-within-WRR interleaves the
  // small group's cells at the head of each round instead of making it
  // wait out the backlog: S B S B B B B B.
  OrderLog log;
  {
    TaskScheduler sched(1);
    Gate gate(sched);
    auto big = sched.make_group();
    for (int i = 0; i < 6; ++i) {
      big->submit(TaskClass::kCell, [&] { log.push('B'); });
    }
    auto small = deadline_group(sched, 100'000);
    for (int i = 0; i < 2; ++i) {
      small->submit(TaskClass::kCell, [&] { log.push('S'); });
    }
    gate.release();
  }
  EXPECT_EQ(log.str(), "SBSBBBBB");
}

TEST(TaskSchedulerDispatch, WeightedRoundRobinGrantsWeightPerRound) {
  // Weight 2 vs weight 1: each round dispatches AAB, and the refill
  // happens only once every runnable group is credit-spent — so B is
  // never starved no matter how deep A's backlog is.
  OrderLog log;
  {
    TaskScheduler sched(1);
    Gate gate(sched);
    GroupOptions heavy;
    heavy.weight = 2;
    auto a = sched.make_group(heavy);
    auto b = sched.make_group();
    for (int i = 0; i < 4; ++i) {
      a->submit(TaskClass::kCell, [&] { log.push('A'); });
    }
    for (int i = 0; i < 2; ++i) {
      b->submit(TaskClass::kCell, [&] { log.push('B'); });
    }
    gate.release();
  }
  EXPECT_EQ(log.str(), "AABAAB");
}

TEST(TaskSchedulerBatch, RunBatchRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 64;
  TaskScheduler sched(4);
  auto group = sched.make_group();
  std::vector<std::atomic<int>> hits(kN);
  sched.run_batch(*group, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskSchedulerBatch, FirstCellExceptionIsRethrownAfterTheBatchDrains) {
  TaskScheduler sched(2);
  auto group = sched.make_group();
  std::atomic<int> executed{0};
  try {
    sched.run_batch(*group, 8, [&](std::size_t i) {
      ++executed;
      if (i == 3) throw std::runtime_error("cell 3 boom");
    });
    FAIL() << "run_batch must rethrow the cell's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3 boom");
  }
  // The batch drained fully before rethrowing (fork-join, not abort).
  EXPECT_EQ(executed.load(), 8);
  // The scheduler is unharmed: the next batch completes normally.
  std::atomic<int> after{0};
  sched.run_batch(*group, 4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

TEST(TaskSchedulerBatch, NestedRunBatchFromAWorkerTaskCompletes) {
  // A request driver running *on* the scheduler forks its own batch; the
  // cooperative join (the caller helps run cells) keeps even a
  // single-worker scheduler deadlock-free.
  TaskScheduler sched(1);
  auto driver_group = sched.make_group();
  std::promise<int> result;
  driver_group->submit(TaskClass::kRequest, [&] {
    auto batch_group = sched.make_group();
    std::atomic<int> sum{0};
    sched.run_batch(*batch_group, 4,
                    [&](std::size_t i) { sum += static_cast<int>(i) + 1; });
    result.set_value(sum.load());
  });
  EXPECT_EQ(result.get_future().get(), 1 + 2 + 3 + 4);
}

TEST(TaskSchedulerBatch, HelpUntilJoinsTasksThatSpawnMoreTasks) {
  // A campaign's leaders queue their followers as they settle, so the
  // join waits on a condition, not a batch count. Driven from a worker
  // task of a one-worker scheduler: only the caller's own help can run
  // the spawned cells, so this deadlocks unless help_until drains them.
  TaskScheduler sched(1);
  auto driver_group = sched.make_group();
  std::promise<int> result;
  driver_group->submit(TaskClass::kRequest, [&] {
    auto cells = sched.make_group();
    std::atomic<int> settled{0};
    for (int leader = 0; leader < 3; ++leader) {
      cells->submit(TaskClass::kCell, [&] {
        for (int follower = 0; follower < 2; ++follower) {
          cells->submit(TaskClass::kCell, [&] { ++settled; });
        }
        ++settled;
      });
    }
    sched.help_until([&] { return settled.load() == 9; });
    result.set_value(settled.load());
  });
  EXPECT_EQ(result.get_future().get(), 9);
}

TEST(TaskSchedulerCancel, CanceledGroupShedsItsWholeBatch) {
  TaskScheduler sched(2);
  CancelToken token;
  token.cancel({ErrorCode::kCanceled, "shed it all"});
  GroupOptions opts;
  opts.cancel = &token;
  auto group = sched.make_group(opts);
  std::atomic<int> executed{0};
  // Shed cells still settle, so the batch drains and returns — the
  // bodies just never run.
  sched.run_batch(*group, 16, [&](std::size_t) { ++executed; });
  EXPECT_EQ(executed.load(), 0);
}

TEST(TaskSchedulerCancel, MidBatchCancelStopsAtACellBoundary) {
  // The first executed cell cancels the token; every cell dispatched
  // after the flag is visible is shed. At most the caller's and the
  // worker's in-flight cells slip through — the long tail never runs.
  constexpr std::size_t kN = 64;
  TaskScheduler sched(1);
  CancelToken token;
  GroupOptions opts;
  opts.cancel = &token;
  auto group = sched.make_group(opts);
  std::atomic<int> executed{0};
  sched.run_batch(*group, kN, [&](std::size_t) {
    ++executed;
    token.cancel({ErrorCode::kCanceled, "first cell pulls the plug"});
  });
  EXPECT_GE(executed.load(), 1);
  EXPECT_LT(executed.load(), static_cast<int>(kN) / 2);
}

TEST(TaskSchedulerTimer, FiresItsCallbackAfterTheDeadline) {
  TaskScheduler sched(2);
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  (void)sched.arm(
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5), [&] {
        std::lock_guard lock(mu);
        fired = true;
        cv.notify_all();
      });
  std::unique_lock lock(mu);
  EXPECT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return fired; }));
  EXPECT_EQ(sched.armed(), 0u);
}

TEST(TaskSchedulerTimer, DisarmedTicketNeverFires) {
  TaskScheduler sched(2);
  std::atomic<bool> fired{false};
  const TaskScheduler::Ticket ticket = sched.arm(
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20),
      [&] { fired = true; });
  sched.disarm(ticket);
  EXPECT_EQ(sched.armed(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(fired.load());
}

TEST(TaskSchedulerTimer, FiresInDeadlineOrderAcrossManyTickets) {
  TaskScheduler sched(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  for (int i = 4; i >= 0; --i) {  // armed in reverse deadline order
    (void)sched.arm(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(5 + 10 * i),
                    [&, i] {
                      std::lock_guard lock(mu);
                      order.push_back(i);
                      cv.notify_all();
                    });
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return order.size() == 5u; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskSchedulerTimer, TimersFireEvenWhileCellsKeepWorkersBusy) {
  // The timer queue shares the workers with the run queue: a due timer
  // is picked up between tasks, not starved behind them.
  TaskScheduler sched(1);
  std::atomic<bool> fired{false};
  (void)sched.arm(
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10),
      [&] { fired = true; });
  auto group = sched.make_group();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!fired.load() && std::chrono::steady_clock::now() < give_up) {
    sched.run_batch(*group, 4, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  EXPECT_TRUE(fired.load());
}

}  // namespace
}  // namespace mnemo::util
