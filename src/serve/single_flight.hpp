#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/artifacts.hpp"
#include "util/cancel.hpp"

namespace mnemo::serve {

/// Single-flight deduplication of the measure stage, keyed on
/// Session::measure_key(). The first requester of a key becomes the
/// *leader* and runs the emulator campaign; concurrent requesters of the
/// same key park a wake-up until the leader publishes, then adopt the
/// leader's artifact (*join*). Published artifacts are memoized for the
/// server's lifetime, so each distinct measure key is replayed at most
/// once per server — later requests are memo hits even with the artifact
/// cache disabled. A leader that fails (exception, degraded grid) abandons
/// the flight and wakes every waiter; the first to re-enter becomes the
/// new leader and the rest park again, so a transient failure never
/// wedges the key.
class MeasureCache {
 public:
  /// A claim on a key: either this caller must compute and then
  /// publish()/abandon() (leader), or the artifact is already here.
  struct Lease {
    bool leader = false;
    /// Set iff !leader: the artifact to adopt.
    std::shared_ptr<const core::MeasureArtifact> artifact;
  };

  /// Claim the key without blocking: a memo hit or leadership returns a
  /// Lease immediately; an in-flight leader returns nullopt after
  /// registering `wake`, which runs exactly once when the flight
  /// publishes, abandons, or `cancel` fires — the caller parks no thread
  /// and re-enters try_acquire from the wake-up. A memo hit is served
  /// even to a canceled caller (adopting a finished artifact costs
  /// nothing); otherwise a canceled caller throws util::CanceledError and
  /// never becomes leader. The cancel wake is driven by cancel()
  /// callbacks only: a caller whose token has a deadline but nothing
  /// arming cancel() must bound its own wait.
  [[nodiscard]] std::optional<Lease> try_acquire(const std::string& key,
                                                 util::CancelToken* cancel,
                                                 std::function<void()> wake);

  /// Leader completion: memoize the artifact and wake all joiners.
  void publish(const std::string& key,
               std::shared_ptr<const core::MeasureArtifact> artifact);

  /// Leader failure: release the key without a result. Waiters race to be
  /// promoted; each request still fails (or retries) independently.
  void abandon(const std::string& key);

 private:
  /// One parked try_acquire() caller. `fire()` is idempotent and safe
  /// from any thread: whichever of publish/abandon/cancel gets there
  /// first moves the wake out (breaking any reference cycle through the
  /// caller's context) and runs it; later firers are no-ops.
  struct Waiter {
    std::atomic<bool> fired{false};
    std::function<void()> wake;

    void fire() {
      if (!fired.exchange(true)) {
        std::function<void()> w = std::move(wake);
        if (w) w();
      }
    }
  };

  mutable std::mutex mu_;
  /// In-flight keys, each with the waiters parked on its leader.
  std::unordered_map<std::string, std::vector<std::shared_ptr<Waiter>>>
      flights_;
  std::unordered_map<std::string, std::shared_ptr<const core::MeasureArtifact>>
      done_;
};

}  // namespace mnemo::serve
