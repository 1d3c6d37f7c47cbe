#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/artifact_io.hpp"

namespace mnemo::faultinject {

/// Declarative chaos plan for the I/O boundary — the counterpart of
/// FaultPlan (which lives inside the emulated memory) for the parts of
/// the consultant that touch the real world: artifact-store writes and
/// campaign-cell wall-clock. Every decision is a pure function of
/// (seed, site identity), so a chaos campaign replays bit-identically
/// under any thread interleaving.
struct IoFaultPlan {
  std::uint64_t seed = 0x10fa;

  // --- filesystem write failures ----------------------------------------
  /// Per-write probability that the temp file cannot be opened at all
  /// (ENOSPC-style failure; the save is reported as a typed error and the
  /// store stays untouched).
  double write_fail_rate = 0.0;
  /// Per-write probability of a crash mid-write: a torn temp file is left
  /// behind and the rename never happens — the litter fsck must reap.
  double torn_write_rate = 0.0;
  /// Fraction of the payload that lands before a torn write "crashes".
  double torn_fraction = 0.5;

  // --- slow campaign cells ----------------------------------------------
  /// Per-cell probability of an injected wall-clock stall. Stalls delay
  /// the tool, never the simulated clock, so measured bytes are
  /// untouched — this is the knob deadline tests use to make a campaign
  /// reliably outlive a deadline.
  double slow_cell_rate = 0.0;
  /// Stall length per drawn cell, milliseconds.
  double slow_cell_ms = 0.0;

  /// True when no chaos class is enabled.
  [[nodiscard]] bool empty() const noexcept {
    return write_fail_rate <= 0.0 && torn_write_rate <= 0.0 &&
           (slow_cell_rate <= 0.0 || slow_cell_ms <= 0.0);
  }
};

/// Counters of the chaos events actually injected.
struct IoFaultStats {
  std::uint64_t writes_seen = 0;      ///< atomic writes the hook inspected
  std::uint64_t write_failures = 0;   ///< injected open failures
  std::uint64_t torn_writes = 0;      ///< injected mid-write crashes
  std::uint64_t delayed_cells = 0;    ///< campaign cells stalled
};

/// The deterministic I/O chaos source. Decisions hash (seed, path,
/// per-path write ordinal) for writes and (seed, cell index) for cells,
/// so what gets hit depends only on the plan and the site — never on
/// scheduling. One injector is installed process-wide at a time
/// (ScopedIoFaults); installation is a test/chaos-harness affair, the
/// production server never arms one.
class IoFaultInjector {
 public:
  explicit IoFaultInjector(IoFaultPlan plan);

  /// The write-fault decision for one atomic write of `path`.
  [[nodiscard]] util::WriteFault on_write(const std::string& path);

  /// Stall decision for campaign cell `cell` (pure; counts when it hits).
  /// Returns the stall in milliseconds (0 = no stall).
  [[nodiscard]] double cell_delay_ms(std::size_t cell);

  [[nodiscard]] const IoFaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] IoFaultStats stats() const;

 private:
  IoFaultPlan plan_;
  mutable std::mutex mu_;
  IoFaultStats stats_;
  std::unordered_map<std::string, std::uint64_t> write_ordinal_;
};

/// RAII installation of an injector as the process-wide chaos source:
/// hooks util::write_file_atomic and the campaign runner's per-cell seam.
/// Un-installs (and restores a clean world) on destruction. Chaos tests
/// only — nesting is a test bug and asserts.
class ScopedIoFaults {
 public:
  explicit ScopedIoFaults(IoFaultPlan plan);
  ~ScopedIoFaults();

  ScopedIoFaults(const ScopedIoFaults&) = delete;
  ScopedIoFaults& operator=(const ScopedIoFaults&) = delete;

  [[nodiscard]] IoFaultInjector& injector() noexcept { return injector_; }

 private:
  IoFaultInjector injector_;
};

/// The campaign runner's chaos seam: stalls the calling worker for the
/// injected delay of `cell`, or returns immediately when no injector is
/// installed (the production case — one relaxed atomic load).
void chaos_cell_delay(std::size_t cell);

}  // namespace mnemo::faultinject
