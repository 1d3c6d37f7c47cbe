#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace mnemo::util {

/// Structured-concurrency executor scheduling short, shared-nothing tasks
/// (campaign cells, request state-machine steps) from many concurrent
/// requests onto one fixed set of workers.
///
/// Tasks are submitted through per-request *groups*. Dispatch across
/// groups is earliest-deadline-first inside weighted-round-robin rounds:
///
///   - every runnable group holds a credit balance, refilled to its
///     configured weight only once *all* runnable groups are spent — so
///     each group is guaranteed `weight` dispatches per round and no
///     group starves, however large its backlog;
///   - within a round, the next task comes from the credit-holding group
///     with the earliest armed deadline (deadline-free groups sort last),
///     ties broken by group creation order, which makes dispatch
///     deterministic whenever a single thread drains the queue.
///
/// Waits never park a worker on another task's progress: run_batch()
/// callers cooperatively execute queued cells while their own batch
/// drains, and request-level joins are expressed as continuations
/// (re-submitted tasks), not blocked threads. A deadline queue (arm /
/// disarm, fired in deadline order by whichever worker is idle soonest)
/// replaces the dedicated watchdog thread.
///
/// Determinism: the scheduler moves work between threads but never
/// reorders observable results — batch users index into pre-sized output
/// slots and merge in fixed order (DESIGN.md §6), so grids stay
/// bit-identical at any worker count.
class TaskScheduler {
 public:
  /// Scheduling class of a task. kCell tasks are leaf units of bounded
  /// work that never wait (campaign cells); kRequest tasks drive request
  /// state machines and may submit further tasks. Cooperative helpers in
  /// run_batch() execute only kCell tasks, so a thread already inside a
  /// request can never re-enter another request's driver beneath it.
  enum class TaskClass : std::uint8_t { kCell = 0, kRequest = 1 };

  struct GroupOptions {
    /// EDF key: groups with earlier armed deadlines dispatch first within
    /// a round; an unarmed deadline sorts after every armed one.
    Deadline deadline;
    /// Credits granted per round-robin round (min 1).
    std::uint32_t weight = 1;
    /// Group-wide cancellation scope: batch cells of a canceled group are
    /// shed at dispatch (their batch still drains, so waiters settle).
    /// Not owned; must outlive the group's tasks.
    const CancelToken* cancel = nullptr;
  };

  class Group : public std::enable_shared_from_this<Group> {
   public:
    /// Enqueue a task. kRequest tasks must not throw — a detached task
    /// has no waiter to deliver the exception to (logged and dropped).
    void submit(TaskClass cls, std::function<void()> fn);

    [[nodiscard]] const GroupOptions& options() const noexcept {
      return opts_;
    }
    [[nodiscard]] TaskScheduler& scheduler() const noexcept {
      return *sched_;
    }
    /// Tasks queued or currently executing (test introspection).
    [[nodiscard]] std::size_t inflight() const;

   private:
    friend class TaskScheduler;
    struct BatchState;
    struct Task {
      std::function<void()> fn;
      TaskClass cls = TaskClass::kCell;
      std::shared_ptr<BatchState> batch;  ///< null for detached tasks
    };

    Group(TaskScheduler* sched, GroupOptions opts, std::uint64_t seq)
        : sched_(sched), opts_(opts), seq_(seq) {}

    TaskScheduler* sched_;
    GroupOptions opts_;
    std::uint64_t seq_;
    // Guarded by sched_->mu_:
    std::deque<Task> queue_;
    std::uint32_t credits_ = 0;
    std::size_t running_ = 0;
    bool in_run_queue_ = false;
  };

  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit TaskScheduler(std::size_t threads = 0);

  /// Drains all submitted tasks (including ones they submit), then joins
  /// the workers. Pending deadline timers are dropped unfired.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  [[nodiscard]] std::shared_ptr<Group> make_group(GroupOptions opts);
  [[nodiscard]] std::shared_ptr<Group> make_group();  ///< default options
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

  /// Fork-join: submit fn(0..n) as kCell tasks of `group`, then
  /// cooperatively execute queued cells (any group's) on the calling
  /// thread until all n have settled. The first exception thrown by a
  /// cell is rethrown here after the batch drains. Callable from worker
  /// tasks and external threads alike; the caller's help is what keeps a
  /// single-worker scheduler live-locked-free under nested batches.
  void run_batch(Group& group, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

  /// The join of a fork-join whose tasks were submitted detached and may
  /// submit more (a campaign's placement groups): cooperatively execute
  /// queued cells (any group's) on the calling thread until `done()`
  /// holds. `done` is re-evaluated under the scheduler lock whenever a
  /// task settles, so it must be cheap, must not call back in here, and
  /// may only turn true before the call or inside a task of this
  /// scheduler (that task's settle is what wakes the waiter).
  void help_until(const std::function<bool()>& done);

  /// Deadline queue (the former DeadlineWatchdog, folded in). `fire`
  /// runs once on a worker thread at or after `when`, in deadline order
  /// when several are due; disarm() is best-effort — a timer already
  /// being fired may still run. Callbacks must not block.
  using Ticket = std::uint64_t;
  [[nodiscard]] Ticket arm(std::chrono::steady_clock::time_point when,
                           std::function<void()> fire);
  void disarm(Ticket ticket);
  [[nodiscard]] std::size_t armed() const;

 private:
  using BatchState = Group::BatchState;
  using Task = Group::Task;
  struct Popped {
    Task task;
    std::shared_ptr<Group> group;
  };
  struct Timer {
    std::chrono::steady_clock::time_point when;
    std::function<void()> fire;
  };

  void submit_locked(Group& group, TaskClass cls, std::function<void()> fn,
                     std::shared_ptr<BatchState> batch);
  [[nodiscard]] std::optional<Popped> pop_locked(bool cells_only);
  [[nodiscard]] bool cell_ready_locked() const;
  void help_locked(std::unique_lock<std::mutex>& lock,
                   const std::function<bool()>& done);
  void execute(Popped popped);
  void fire_due_locked(std::unique_lock<std::mutex>& lock);
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  next_due_locked() const;
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool firing_timers_ = false;
  std::uint64_t next_group_seq_ = 0;
  Ticket next_ticket_ = 1;
  std::size_t outstanding_ = 0;  ///< tasks submitted and not yet settled
  std::vector<std::shared_ptr<Group>> run_queue_;  ///< groups w/ queued work
  std::map<Ticket, Timer> timers_;
  ThreadPool pool_;  ///< low-level backend; declared last: joins first
};

}  // namespace mnemo::util
