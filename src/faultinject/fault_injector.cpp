#include "faultinject/fault_injector.hpp"

namespace mnemo::faultinject {

namespace {

/// Map a 64-bit hash to a uniform double in [0, 1) the same way Rng does.
double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t stream)
    : plan_(plan),
      stream_(stream),
      poison_salt_(util::mix64(plan.seed ^ util::mix64(stream ^
                                                       0x90150ed11e5ULL))),
      rng_(util::mix64(plan.seed) ^ util::mix64(stream * 0x9e3779b97f4a7c15ULL)) {
  plan_.check();
}

bool FaultInjector::poisoned(std::uint64_t object_id) const noexcept {
  if (plan_.poison_rate <= 0.0) return false;
  return to_unit(util::mix64(object_id ^ poison_salt_)) < plan_.poison_rate;
}

FaultInjector::ReadOutcome FaultInjector::on_slow_read() {
  ReadOutcome out;
  if (plan_.transient_read_rate <= 0.0) return out;
  if (rng_.next_double() >= plan_.transient_read_rate) return out;
  out.faulted = true;
  ++stats_.transient_faults;
  for (int i = 0; i < plan_.transient_max_retries; ++i) {
    ++stats_.transient_retries;
    out.extra_ns += plan_.transient_retry_cost_ns;
    if (rng_.next_double() < plan_.transient_recover_prob) return out;
  }
  out.failed = true;
  ++stats_.transient_failures;
  return out;
}

double FaultInjector::next_bandwidth_factor() {
  if (plan_.bw_period_accesses == 0) return 1.0;
  const std::uint64_t phase = slow_accesses_++ % plan_.bw_period_accesses;
  if (phase >= plan_.bw_window_accesses) return 1.0;
  ++stats_.degraded_accesses;
  return plan_.bw_degraded_factor;
}

}  // namespace mnemo::faultinject
