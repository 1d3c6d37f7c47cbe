#include "serve/single_flight.hpp"

#include <utility>

#include "util/assert.hpp"

namespace mnemo::serve {

std::optional<MeasureCache::Lease> MeasureCache::try_acquire(
    const std::string& key, util::CancelToken* cancel,
    std::function<void()> wake) {
  std::shared_ptr<Waiter> waiter;
  {
    std::unique_lock lock(mu_);
    if (const auto done = done_.find(key); done != done_.end()) {
      return Lease{false, done->second};
    }
    // A canceled caller must not become leader: it would immediately
    // abandon and thrash the election.
    if (cancel != nullptr) cancel->check();
    const auto flight = flights_.find(key);
    if (flight == flights_.end()) {
      flights_.try_emplace(key);
      return Lease{true, nullptr};
    }
    waiter = std::make_shared<Waiter>();
    waiter->wake = std::move(wake);
    flight->second.push_back(waiter);
  }
  if (cancel != nullptr) {
    // Registered outside mu_ (on_cancel may invoke the callback inline if
    // the token is already canceled) and deliberately never removed: once
    // fired, the callback is a no-op holding only the small Waiter shell —
    // the wake itself, with whatever request context it captures, has
    // already been moved out and released.
    cancel->on_cancel([waiter] { waiter->fire(); });
  }
  return std::nullopt;
}

void MeasureCache::publish(
    const std::string& key,
    std::shared_ptr<const core::MeasureArtifact> artifact) {
  MNEMO_EXPECTS(artifact != nullptr);
  std::vector<std::shared_ptr<Waiter>> waiters;
  {
    std::lock_guard lock(mu_);
    done_[key] = std::move(artifact);
    if (const auto flight = flights_.find(key); flight != flights_.end()) {
      waiters = std::move(flight->second);
      flights_.erase(flight);
    }
  }
  // Outside mu_: a wake may re-enter try_acquire immediately.
  for (const std::shared_ptr<Waiter>& w : waiters) w->fire();
}

void MeasureCache::abandon(const std::string& key) {
  std::vector<std::shared_ptr<Waiter>> waiters;
  {
    std::lock_guard lock(mu_);
    const auto flight = flights_.find(key);
    MNEMO_EXPECTS(flight != flights_.end());
    waiters = std::move(flight->second);
    flights_.erase(flight);
  }
  // Woken waiters race back through try_acquire; the first re-entrant
  // becomes the replacement leader, the rest re-park.
  for (const std::shared_ptr<Waiter>& w : waiters) w->fire();
}

}  // namespace mnemo::serve
