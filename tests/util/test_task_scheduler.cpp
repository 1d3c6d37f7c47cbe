// Dispatch-law property tests for the TaskScheduler: EDF ordering
// across groups, round-robin fairness without starvation, the
// cooperative help_until join, and the deadline timer queue.
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
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/task_scheduler.hpp"

namespace mnemo::util {
namespace {

using Group = TaskScheduler::Group;
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
  return sched.make_group(Deadline::after_ms(deadline_ms));
}

TEST(HardwareThreads, IsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1u);
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
  // deadline-armed group arrives with 2. EDF within round-robin rounds
  // interleaves the small group's cells at the head of each round instead
  // of making it wait out the backlog: S B S B B B B B.
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
    std::atomic<int> settled{0};
    for (int i = 0; i < 4; ++i) {
      group->submit(TaskClass::kCell, [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++settled;
      });
    }
    sched.help_until([&] { return settled.load() == 4; });
  }
  EXPECT_TRUE(fired.load());
}

}  // namespace
}  // namespace mnemo::util
