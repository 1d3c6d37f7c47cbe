#include "util/task_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mnemo::util {

using Clock = std::chrono::steady_clock;

/// Join state for one run_batch() call. Guarded by the scheduler mutex;
/// waiters observe remaining == 0 under the same lock that published the
/// cells' writes, so batch results need no separate synchronization.
struct TaskScheduler::Group::BatchState {
  std::size_t remaining = 0;
  std::exception_ptr error;  ///< first cell failure wins
};

void TaskScheduler::Group::submit(TaskClass cls, std::function<void()> fn) {
  {
    std::lock_guard lock(sched_->mu_);
    sched_->submit_locked(*this, cls, std::move(fn), nullptr);
  }
  sched_->cv_.notify_all();
}

std::size_t TaskScheduler::Group::inflight() const {
  std::lock_guard lock(sched_->mu_);
  return queue_.size() + running_;
}

TaskScheduler::TaskScheduler(std::size_t threads) : pool_(threads) {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_.submit([this] { worker_loop(); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
    stop_ = true;
  }
  cv_.notify_all();
  // pool_'s destructor joins the workers.
}

std::shared_ptr<TaskScheduler::Group> TaskScheduler::make_group() {
  return make_group(GroupOptions{});
}

std::shared_ptr<TaskScheduler::Group> TaskScheduler::make_group(
    GroupOptions opts) {
  opts.weight = std::max<std::uint32_t>(1, opts.weight);
  std::lock_guard lock(mu_);
  // Group's constructor is private; make_shared can't reach it.
  return std::shared_ptr<Group>(new Group(this, opts, next_group_seq_++));
}

void TaskScheduler::submit_locked(Group& group, TaskClass cls,
                                  std::function<void()> fn,
                                  std::shared_ptr<BatchState> batch) {
  group.queue_.push_back(Task{std::move(fn), cls, std::move(batch)});
  ++outstanding_;
  if (!group.in_run_queue_) {
    group.in_run_queue_ = true;
    // A group (re-)entering the run queue joins the current round with a
    // fresh credit grant.
    group.credits_ = group.opts_.weight;
    run_queue_.push_back(group.shared_from_this());
  }
}

namespace {

[[nodiscard]] Clock::time_point deadline_key(const Deadline& d) {
  return d.armed() ? d.when() : Clock::time_point::max();
}

}  // namespace

std::optional<TaskScheduler::Popped> TaskScheduler::pop_locked(
    bool cells_only) {
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t best = run_queue_.size();
    bool spent_group_waiting = false;
    for (std::size_t i = 0; i < run_queue_.size(); ++i) {
      const Group& g = *run_queue_[i];
      if (cells_only && g.queue_.front().cls != TaskClass::kCell) continue;
      if (g.credits_ == 0) {
        spent_group_waiting = true;
        continue;
      }
      if (best == run_queue_.size()) {
        best = i;
        continue;
      }
      const Group& b = *run_queue_[best];
      const auto kg = deadline_key(g.opts_.deadline);
      const auto kb = deadline_key(b.opts_.deadline);
      if (kg < kb || (kg == kb && g.seq_ < b.seq_)) best = i;
    }
    if (best != run_queue_.size()) {
      std::shared_ptr<Group> group = run_queue_[best];
      Popped popped{std::move(group->queue_.front()), group};
      group->queue_.pop_front();
      --group->credits_;
      ++group->running_;
      if (group->queue_.empty()) {
        run_queue_.erase(run_queue_.begin() +
                         static_cast<std::ptrdiff_t>(best));
        group->in_run_queue_ = false;
      }
      return popped;
    }
    // Nothing dispatchable. If some eligible group was only held back by
    // an empty credit balance, the round is over: refill and retry once.
    if (!spent_group_waiting) return std::nullopt;
    for (auto& g : run_queue_) g->credits_ = g->opts_.weight;
  }
  return std::nullopt;
}

bool TaskScheduler::cell_ready_locked() const {
  return std::any_of(run_queue_.begin(), run_queue_.end(), [](const auto& g) {
    return g->queue_.front().cls == TaskClass::kCell;
  });
}

void TaskScheduler::execute(Popped popped) {
  std::exception_ptr err;
  // Cell shedding: batch cells of a canceled group skip their body but
  // still settle, so the batch drains at a cell boundary. Detached cells
  // carry their own accounting inside fn and must always run.
  const CancelToken* cancel = popped.group->opts_.cancel;
  const bool shed = popped.task.batch != nullptr &&
                    popped.task.cls == TaskClass::kCell &&
                    cancel != nullptr && cancel->canceled();
  if (!shed) {
    try {
      popped.task.fn();
    } catch (...) {
      err = std::current_exception();
    }
  }
  {
    std::lock_guard lock(mu_);
    --popped.group->running_;
    if (popped.task.batch != nullptr) {
      if (err != nullptr && popped.task.batch->error == nullptr) {
        popped.task.batch->error = err;
      }
      err = nullptr;
      --popped.task.batch->remaining;
    }
    MNEMO_ASSERT(outstanding_ > 0);
    --outstanding_;
  }
  cv_.notify_all();
  if (err != nullptr) {
    // A detached task has no waiter to deliver its exception to; request
    // drivers are expected to settle failures themselves.
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      MNEMO_LOG_WARN("task scheduler: detached task threw: %s", e.what());
    } catch (...) {
      MNEMO_LOG_WARN("task scheduler: detached task threw");
    }
  }
}

void TaskScheduler::run_batch(Group& group, std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto batch = std::make_shared<BatchState>();
  batch->remaining = n;
  {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < n; ++i) {
      submit_locked(
          group, TaskClass::kCell, [&fn, i] { fn(i); }, batch);
    }
  }
  cv_.notify_all();

  std::unique_lock lock(mu_);
  help_locked(lock, [&] { return batch->remaining == 0; });
  const std::exception_ptr err = batch->error;
  lock.unlock();
  if (err != nullptr) std::rethrow_exception(err);
}

void TaskScheduler::help_until(const std::function<bool()>& done) {
  std::unique_lock lock(mu_);
  help_locked(lock, done);
}

void TaskScheduler::help_locked(std::unique_lock<std::mutex>& lock,
                                const std::function<bool()>& done) {
  // Cooperative join: run queued cells (any group's — work conservation)
  // until `done`. Restricting help to kCell keeps the stack free of
  // foreign request drivers. Every settle takes the lock and then
  // notifies, so a condition a task flipped before settling is never
  // missed here.
  while (!done()) {
    if (auto popped = pop_locked(/*cells_only=*/true)) {
      lock.unlock();
      execute(std::move(*popped));
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
    if (auto popped = pop_locked(/*cells_only=*/false)) {
      lock.unlock();
      execute(std::move(*popped));
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
