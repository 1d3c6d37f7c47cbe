#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "workload/trace.hpp"

namespace mnemo::workload {

/// x-side normal-equation moments of one byte stream, precomputed once per
/// campaign for stats::fit_line_sums: n = Σ1, sum_x = Σx, sum_xx = Σx²,
/// each accumulated in index order exactly as stats::fit_line's own loop
/// would, so the downstream 2×2 solve sees bit-identical coefficients.
/// `distinct` records whether the stream has at least two different values
/// (the fit-vs-flat-mean guard, also placement-invariant).
struct ServiceFitMoments {
  double n = 0.0;
  double sum_x = 0.0;
  double sum_xx = 0.0;
  bool distinct = false;
};

/// Campaign-invariant view of a Trace, built once per measurement campaign
/// and shared read-only by every cell (DESIGN.md §12). Everything here is a
/// pure function of the trace — independent of placement, repeat, thread
/// count and fault plan — so hoisting it out of the per-cell loop cannot
/// change a single observable byte:
///
///  - flat SoA request streams (op, dense key id, record size as the
///    double fed to the service-vs-bytes regression),
///  - per-key tables: record size and util::mix64 bucket hash (the
///    Vermilion dict hash and the Cachet assoc hash are the same value),
///  - the per-op byte streams split by request class (read_bytes /
///    write_bytes) that each cell's per-class Σbytes·latency reads, and
///  - dataset_bytes(), an O(keys) sum every cell used to recompute.
///
/// The Trace must outlive the CompiledTrace (the per-key size table is
/// viewed, not copied — same contract as DualServer::populate).
class CompiledTrace {
 public:
  explicit CompiledTrace(const Trace& trace);

  [[nodiscard]] const Trace& trace() const noexcept { return *trace_; }
  [[nodiscard]] std::uint64_t key_count() const noexcept {
    return trace_->key_count();
  }
  [[nodiscard]] std::uint64_t initial_key_count() const noexcept {
    return trace_->initial_key_count();
  }
  /// Cached Trace::dataset_bytes() — O(1) instead of O(keys) per cell.
  [[nodiscard]] std::uint64_t dataset_bytes() const noexcept {
    return dataset_bytes_;
  }

  [[nodiscard]] std::size_t request_count() const noexcept {
    return ops_.size();
  }
  /// Requests split into parallel arrays, index-aligned with requests().
  [[nodiscard]] std::span<const OpType> ops() const noexcept { return ops_; }
  [[nodiscard]] std::span<const std::uint32_t> keys() const noexcept {
    return keys_;
  }

  /// Record sizes of read (resp. write) requests, in request order — the
  /// placement-invariant x-axis of the service-vs-bytes fit, identical to
  /// what the per-cell loop used to rebuild.
  [[nodiscard]] std::span<const double> read_bytes() const noexcept {
    return read_bytes_;
  }
  [[nodiscard]] std::span<const double> write_bytes() const noexcept {
    return write_bytes_;
  }
  /// Normal-equation moments of read_bytes() / write_bytes(), for the
  /// per-cell service-line fit via stats::fit_line_sums.
  [[nodiscard]] const ServiceFitMoments& read_fit() const noexcept {
    return read_fit_;
  }
  [[nodiscard]] const ServiceFitMoments& write_fit() const noexcept {
    return write_fit_;
  }

  [[nodiscard]] std::span<const std::uint64_t> key_sizes() const noexcept {
    return key_sizes_;
  }
  /// util::mix64(key): the bucket hash both chained hash tables derive
  /// probe targets from. Placement-invariant, hence hoisted.
  [[nodiscard]] std::uint64_t key_hash(std::uint64_t key) const noexcept {
    return key_hashes_[static_cast<std::size_t>(key)];
  }
  [[nodiscard]] std::span<const std::uint64_t> key_hashes() const noexcept {
    return key_hashes_;
  }

 private:
  static ServiceFitMoments fit_moments(std::span<const double> bytes);

  const Trace* trace_;
  std::uint64_t dataset_bytes_ = 0;
  std::vector<OpType> ops_;
  std::vector<std::uint32_t> keys_;
  std::vector<double> read_bytes_;
  std::vector<double> write_bytes_;
  ServiceFitMoments read_fit_;
  ServiceFitMoments write_fit_;
  std::span<const std::uint64_t> key_sizes_;
  std::vector<std::uint64_t> key_hashes_;
};

}  // namespace mnemo::workload
