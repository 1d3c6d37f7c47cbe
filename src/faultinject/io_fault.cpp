#include "faultinject/io_fault.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace mnemo::faultinject {

namespace {

/// The one installed injector. Plain pointer behind an atomic: the
/// production fast path (no chaos) is a single relaxed load of nullptr.
/// Installation/removal happens only from ScopedIoFaults on a test
/// thread while no chaos consumers run, enforced by the nesting assert.
std::atomic<IoFaultInjector*> g_injector{nullptr};

/// Uniform [0,1) from a 128-bit stable hash — the same draw-by-hash trick
/// the poison set uses: pure in its inputs, so replayable anywhere.
double unit_draw(std::uint64_t seed, std::string_view site,
                 std::uint64_t ordinal) {
  util::StableHasher h;
  h.u64(seed);
  h.str(site);
  h.u64(ordinal);
  return static_cast<double>(h.lo() >> 11) * 0x1.0p-53;
}

}  // namespace

IoFaultInjector::IoFaultInjector(IoFaultPlan plan) : plan_(plan) {}

util::WriteFault IoFaultInjector::on_write(const std::string& path) {
  std::uint64_t ordinal = 0;
  {
    std::lock_guard lock(mu_);
    ordinal = write_ordinal_[path]++;
    ++stats_.writes_seen;
  }
  util::WriteFault fault;
  // Two independent draws per (path, ordinal) site: a write can fail to
  // open or tear, not both, with open-failure drawn first so the two
  // rates stay independently tunable.
  if (plan_.write_fail_rate > 0.0 &&
      unit_draw(plan_.seed, "write-fail:" + path, ordinal) <
          plan_.write_fail_rate) {
    fault.fail_open = true;
    std::lock_guard lock(mu_);
    ++stats_.write_failures;
    return fault;
  }
  if (plan_.torn_write_rate > 0.0 &&
      unit_draw(plan_.seed, "torn:" + path, ordinal) <
          plan_.torn_write_rate) {
    // Clamp strictly below 1.0: a plan fraction of 1.0 would otherwise
    // read as "not torn" and silently drop the injected crash.
    fault.torn_fraction =
        plan_.torn_fraction < 1.0 ? plan_.torn_fraction : 0.999;
    std::lock_guard lock(mu_);
    ++stats_.torn_writes;
  }
  return fault;
}

double IoFaultInjector::cell_delay_ms(std::size_t cell) {
  if (plan_.slow_cell_rate <= 0.0 || plan_.slow_cell_ms <= 0.0) return 0.0;
  if (unit_draw(plan_.seed, "slow-cell", cell) >= plan_.slow_cell_rate) {
    return 0.0;
  }
  std::lock_guard lock(mu_);
  ++stats_.delayed_cells;
  return plan_.slow_cell_ms;
}

IoFaultStats IoFaultInjector::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

ScopedIoFaults::ScopedIoFaults(IoFaultPlan plan) : injector_(plan) {
  IoFaultInjector* expected = nullptr;
  const bool installed = g_injector.compare_exchange_strong(
      expected, &injector_, std::memory_order_release,
      std::memory_order_relaxed);
  MNEMO_ASSERT(installed && "nested ScopedIoFaults");
  util::set_write_fault_hook([this](const std::string& path) {
    return injector_.on_write(path);
  });
}

ScopedIoFaults::~ScopedIoFaults() {
  util::set_write_fault_hook(nullptr);
  g_injector.store(nullptr, std::memory_order_release);
}

void chaos_cell_delay(std::size_t cell) {
  IoFaultInjector* injector = g_injector.load(std::memory_order_acquire);
  if (injector == nullptr) return;
  const double ms = injector->cell_delay_ms(cell);
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace mnemo::faultinject
