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
#include <thread>
#include <vector>

#include "util/cancel.hpp"

namespace mnemo::util {

/// Hardware concurrency with the zero-report fallback applied (min 1).
[[nodiscard]] std::size_t hardware_threads();

/// Structured-concurrency executor scheduling short, shared-nothing tasks
/// (campaign cells, request state-machine steps) from many concurrent
/// requests onto one fixed set of workers it owns.
///
/// Tasks are submitted through per-request *groups*. Dispatch across
/// groups is earliest-deadline-first inside round-robin rounds:
///
///   - every runnable group holds one dispatch credit per round, refilled
///     only once *all* runnable groups are spent — so no group starves,
///     however large its backlog;
///   - within a round, the next task comes from the credit-holding group
///     with the earliest armed deadline (deadline-free groups sort last),
///     ties broken by group creation order, which makes dispatch
///     deterministic whenever a single thread drains the queue.
///
/// Waits never park a worker on another task's progress: help_until()
/// callers cooperatively execute queued cells while they wait, and
/// request-level joins are expressed as continuations (re-submitted
/// tasks), not blocked threads. A deadline queue (arm / disarm, fired in
/// deadline order by whichever worker is idle soonest) replaces a
/// dedicated watchdog thread.
///
/// Determinism: the scheduler moves work between threads but never
/// reorders observable results — grid tasks write pre-sized output slots
/// that are merged in fixed order (DESIGN.md §6), so grids stay
/// bit-identical at any worker count.
class TaskScheduler {
 public:
  /// Scheduling class of a task. kCell tasks are leaf units of bounded
  /// work that never wait (campaign cells); kRequest tasks drive request
  /// state machines and may submit further tasks. Cooperative helpers in
  /// help_until() execute only kCell tasks, so a thread already inside a
  /// request can never re-enter another request's driver beneath it.
  enum class TaskClass : std::uint8_t { kCell = 0, kRequest = 1 };

  class Group : public std::enable_shared_from_this<Group> {
   public:
    /// Enqueue a task. Tasks must not throw — a detached task has no
    /// waiter to deliver the exception to (logged and dropped).
    void submit(TaskClass cls, std::function<void()> fn);

    [[nodiscard]] TaskScheduler& scheduler() const noexcept {
      return *sched_;
    }

   private:
    friend class TaskScheduler;
    struct Task {
      std::function<void()> fn;
      TaskClass cls = TaskClass::kCell;
    };

    Group(TaskScheduler* sched, Deadline deadline, std::uint64_t seq)
        : sched_(sched), deadline_(deadline), seq_(seq) {}

    TaskScheduler* sched_;
    Deadline deadline_;  ///< EDF key; unarmed sorts after every armed one
    std::uint64_t seq_;
    // Guarded by sched_->mu_:
    std::deque<Task> queue_;
    bool credit_ = false;  ///< may dispatch once more this round
    bool in_run_queue_ = false;
  };

  /// Spawns `threads` workers (0 = hardware_threads()).
  explicit TaskScheduler(std::size_t threads = 0);

  /// Drains all submitted tasks (including ones they submit), then joins
  /// the workers. Pending deadline timers are dropped unfired.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// A new group whose tasks dispatch under `deadline` as their EDF key.
  [[nodiscard]] std::shared_ptr<Group> make_group(Deadline deadline = {});
  [[nodiscard]] std::size_t threads() const noexcept {
    return workers_.size();
  }

  /// The join of a fork-join whose tasks were submitted detached and may
  /// submit more (a campaign's placement groups): cooperatively execute
  /// queued cells (any group's) on the calling thread until `done()`
  /// holds. `done` is re-evaluated under the scheduler lock whenever a
  /// task settles, so it must be cheap, must not call back in here, and
  /// may only turn true before the call or inside a task of this
  /// scheduler (that task's settle is what wakes the waiter).
  void help_until(const std::function<bool()>& done);

  /// Deadline queue. `fire` runs once on a worker thread at or after
  /// `when`, in deadline order when several are due; disarm() is
  /// best-effort — a timer already being fired may still run. Callbacks
  /// must not block.
  using Ticket = std::uint64_t;
  [[nodiscard]] Ticket arm(std::chrono::steady_clock::time_point when,
                           std::function<void()> fire);
  void disarm(Ticket ticket);
  [[nodiscard]] std::size_t armed() const;

 private:
  using Task = Group::Task;
  struct Timer {
    std::chrono::steady_clock::time_point when;
    std::function<void()> fire;
  };

  [[nodiscard]] std::optional<Task> pop_locked(bool cells_only);
  [[nodiscard]] bool cell_ready_locked() const;
  void execute(Task task);
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
  std::vector<std::thread> workers_;  ///< declared last: uses all of the above
};

}  // namespace mnemo::util
