#include "util/task_scheduler.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mnemo::util {

using Clock = std::chrono::steady_clock;

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void TaskScheduler::Group::submit(TaskClass cls, std::function<void()> fn) {
  {
    std::lock_guard lock(sched_->mu_);
    queue_.push_back(Task{std::move(fn), cls});
    ++sched_->outstanding_;
    if (!in_run_queue_) {
      in_run_queue_ = true;
      // A group (re-)entering the run queue joins the current round with a
      // fresh credit.
      credit_ = true;
      sched_->run_queue_.push_back(shared_from_this());
    }
  }
  sched_->cv_.notify_all();
}

TaskScheduler::TaskScheduler(std::size_t threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::shared_ptr<TaskScheduler::Group> TaskScheduler::make_group(
    Deadline deadline) {
  std::lock_guard lock(mu_);
  // Group's constructor is private; make_shared can't reach it.
  return std::shared_ptr<Group>(
      new Group(this, deadline, next_group_seq_++));
}

namespace {

[[nodiscard]] Clock::time_point deadline_key(const Deadline& d) {
  return d.armed() ? d.when() : Clock::time_point::max();
}

}  // namespace

std::optional<TaskScheduler::Task> TaskScheduler::pop_locked(
    bool cells_only) {
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t best = run_queue_.size();
    bool spent_group_waiting = false;
    for (std::size_t i = 0; i < run_queue_.size(); ++i) {
      const Group& g = *run_queue_[i];
      if (cells_only && g.queue_.front().cls != TaskClass::kCell) continue;
      if (!g.credit_) {
        spent_group_waiting = true;
        continue;
      }
      if (best == run_queue_.size()) {
        best = i;
        continue;
      }
      const Group& b = *run_queue_[best];
      const auto kg = deadline_key(g.deadline_);
      const auto kb = deadline_key(b.deadline_);
      if (kg < kb || (kg == kb && g.seq_ < b.seq_)) best = i;
    }
    if (best != run_queue_.size()) {
      Group& group = *run_queue_[best];
      Task task = std::move(group.queue_.front());
      group.queue_.pop_front();
      group.credit_ = false;
      if (group.queue_.empty()) {
        group.in_run_queue_ = false;
        run_queue_.erase(run_queue_.begin() +
                         static_cast<std::ptrdiff_t>(best));
      }
      return task;
    }
    // Nothing dispatchable. If some eligible group was only held back by
    // a spent credit, the round is over: refill and retry once.
    if (!spent_group_waiting) return std::nullopt;
    for (auto& g : run_queue_) g->credit_ = true;
  }
  return std::nullopt;
}

bool TaskScheduler::cell_ready_locked() const {
  return std::any_of(run_queue_.begin(), run_queue_.end(), [](const auto& g) {
    return g->queue_.front().cls == TaskClass::kCell;
  });
}

void TaskScheduler::execute(Task task) {
  try {
    task.fn();
  } catch (const std::exception& e) {
    // A detached task has no waiter to deliver its exception to; request
    // drivers and grid tasks settle their failures themselves.
    MNEMO_LOG_WARN("task scheduler: detached task threw: %s", e.what());
  } catch (...) {
    MNEMO_LOG_WARN("task scheduler: detached task threw");
  }
  {
    std::lock_guard lock(mu_);
    MNEMO_ASSERT(outstanding_ > 0);
    --outstanding_;
  }
  cv_.notify_all();
}

void TaskScheduler::help_until(const std::function<bool()>& done) {
  // Cooperative join: run queued cells (any group's — work conservation)
  // until `done`. Restricting help to kCell keeps the stack free of
  // foreign request drivers. Every settle takes the lock and then
  // notifies, so a condition a task flipped before settling is never
  // missed here.
  std::unique_lock lock(mu_);
  while (!done()) {
    if (std::optional<Task> task = pop_locked(/*cells_only=*/true)) {
      lock.unlock();
      execute(std::move(*task));
      lock.lock();
      continue;
    }
    cv_.wait(lock, [&] { return done() || cell_ready_locked(); });
  }
}

TaskScheduler::Ticket TaskScheduler::arm(Clock::time_point when,
                                         std::function<void()> fire) {
  Ticket ticket = 0;
  {
    std::lock_guard lock(mu_);
    ticket = next_ticket_++;
    timers_.emplace(ticket, Timer{when, std::move(fire)});
  }
  cv_.notify_all();  // a parked worker may need to shorten its wait
  return ticket;
}

void TaskScheduler::disarm(Ticket ticket) {
  std::lock_guard lock(mu_);
  timers_.erase(ticket);
}

std::size_t TaskScheduler::armed() const {
  std::lock_guard lock(mu_);
  return timers_.size();
}

void TaskScheduler::fire_due_locked(std::unique_lock<std::mutex>& lock) {
  if (firing_timers_ || timers_.empty()) return;
  const auto now = Clock::now();
  std::vector<std::pair<Clock::time_point, std::function<void()>>> due;
  for (auto it = timers_.begin(); it != timers_.end();) {
    if (it->second.when <= now) {
      due.emplace_back(it->second.when, std::move(it->second.fire));
      it = timers_.erase(it);
    } else {
      ++it;
    }
  }
  if (due.empty()) return;
  std::stable_sort(due.begin(), due.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  firing_timers_ = true;  // serialize: deadline order across workers
  lock.unlock();
  for (auto& [when, fire] : due) fire();
  lock.lock();
  firing_timers_ = false;
}

std::optional<Clock::time_point> TaskScheduler::next_due_locked() const {
  std::optional<Clock::time_point> next;
  for (const auto& [ticket, timer] : timers_) {
    if (!next.has_value() || timer.when < *next) next = timer.when;
  }
  return next;
}

void TaskScheduler::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    fire_due_locked(lock);
    if (std::optional<Task> task = pop_locked(/*cells_only=*/false)) {
      lock.unlock();
      execute(std::move(*task));
      lock.lock();
      continue;
    }
    if (stop_) return;
    if (const auto due = next_due_locked()) {
      cv_.wait_until(lock, *due);
    } else {
      cv_.wait(lock);
    }
  }
}

}  // namespace mnemo::util
