#pragma once

// Shared internals of the replay paths in sensitivity_engine.cpp — full
// replay (legacy and compiled) and skeleton replay. Every run, whatever
// the ReplayMode, funnels its latency streams through derive_measurement
// here, which is what makes "bit-identical across replay modes" a
// structural property instead of a hope: the statistics code literally
// cannot diverge between modes. Not installed API — core internals only.

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/baselines.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"
#include "util/status.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core::replay_detail {

/// Fit service ≈ a + b·bytes; degenerate samples (empty, or a single
/// record size) collapse to a flat line at the mean, which makes the
/// size-aware estimate model coincide with the uniform-delta one.
inline stats::Line fit_service_line(std::span<const double> bytes,
                                    std::span<const double> latency) {
  if (latency.empty()) return stats::Line{};
  const double first = bytes.front();
  bool distinct = false;
  for (const double b : bytes) {
    if (b != first) {
      distinct = true;
      break;
    }
  }
  if (!distinct || latency.size() < 2) {
    return stats::Line{stats::mean(latency), 0.0};
  }
  return stats::fit_line(bytes, latency);
}

/// fit_service_line with the campaign-invariant x-side work (distinct
/// scan + normal-equation moments) precomputed by CompiledTrace. Same
/// guards, same solver inputs, bit-identical Line — the byte stream is
/// only re-read for the y-side products.
inline stats::Line fit_service_line(
    const workload::ServiceFitMoments& moments,
    std::span<const double> bytes, std::span<const double> latency) {
  if (latency.empty()) return stats::Line{};
  if (!moments.distinct || latency.size() < 2) {
    return stats::Line{stats::mean(latency), 0.0};
  }
  return stats::fit_line_moments(moments.n, moments.sum_x, moments.sum_xx,
                                 bytes, latency);
}

/// How the tail percentiles are extracted from the latency multiset.
/// Both strategies interpolate between the same two sorted-rank values,
/// so they produce bit-identical p95/p99 — the compiled-replay
/// equivalence suite holds them against each other.
enum class PercentileMode : std::uint8_t {
  kSortMerge,  ///< legacy arm: sort both streams, merge, index (n log n)
  kSelect,     ///< compiled/skeleton arms: rank selection, no sort (O(n))
};

/// percentile_sorted without the sort: nth_element places exactly the
/// value that would sit at sorted rank `lo`, and the interpolation
/// partner at rank lo+1 is the minimum of the right partition (exact and
/// order-independent on these NaN-free streams). The interpolation
/// arithmetic is identical to stats::percentile_sorted, so the result is
/// the same double to the last bit. Mutates `scratch` (partial
/// ordering); O(n) per call.
template <typename Vec>
[[nodiscard]] double percentile_select(Vec& scratch, double q) {
  MNEMO_EXPECTS(!scratch.empty());
  if (scratch.size() == 1) return scratch[0];
  const double pos = q * static_cast<double>(scratch.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(scratch.begin(), nth, scratch.end());
  if (lo + 1 >= scratch.size()) return scratch[scratch.size() - 1];
  const double next = *std::min_element(nth + 1, scratch.end());
  return *nth * (1.0 - frac) + next * frac;
}

/// Shared tail of every replay path: derive every per-run statistic from
/// the latency streams. Means and fits read the vectors in request order
/// *before* any reordering. kSortMerge then merges the two individually
/// sorted streams — the same sorted multiset (hence byte-identical
/// percentiles) as the concatenate-then-sort it replaced, without
/// re-comparing elements each stream already ordered. kSelect skips
/// sorting entirely and extracts the two tail ranks by selection; the
/// percentile values are provably the same doubles, and the compiled ≡
/// legacy tests plus the golden fixtures pin it.
///
/// `Vec` is std::vector<double> (heap replay) or std::pmr::vector<double>
/// (arena-backed compiled/skeleton replay); `merged` scratch must use the
/// same allocator strategy as the inputs. The compiled path hands in the
/// CompiledTrace's precomputed fit moments; the legacy path passes
/// nullptr and recomputes the x-side per cell.
template <typename Vec>
[[nodiscard]] util::Status derive_measurement(
    RunMeasurement& m, std::span<const double> read_bytes,
    std::span<const double> write_bytes, Vec& read_lat, Vec& write_lat,
    Vec& merged, PercentileMode percentiles,
    const workload::ServiceFitMoments* read_fit = nullptr,
    const workload::ServiceFitMoments* write_fit = nullptr) {
  m.reads = read_lat.size();
  m.writes = write_lat.size();
  m.avg_read_ns = read_lat.empty() ? 0.0 : stats::mean(read_lat);
  m.avg_write_ns = write_lat.empty() ? 0.0 : stats::mean(write_lat);
  m.read_vs_bytes = read_fit
                        ? fit_service_line(*read_fit, read_bytes, read_lat)
                        : fit_service_line(read_bytes, read_lat);
  m.write_vs_bytes =
      write_fit ? fit_service_line(*write_fit, write_bytes, write_lat)
                : fit_service_line(write_bytes, write_lat);
  if (!(m.runtime_ns > 0.0)) {
    // Every request cost 0ns (a degenerate profile): division would turn
    // avg_latency_ns/throughput_ops into NaN/inf and quietly poison every
    // downstream mean. Refuse with a typed error instead.
    util::Error e;
    e.code = util::ErrorCode::kFailedPrecondition;
    e.message = "run accumulated zero simulated runtime; "
                "throughput and average latency are undefined";
    return e;
  }
  m.avg_latency_ns = m.runtime_ns / static_cast<double>(m.requests);
  m.throughput_ops = static_cast<double>(m.requests) / (m.runtime_ns / 1e9);
  if (percentiles == PercentileMode::kSortMerge) {
    std::sort(read_lat.begin(), read_lat.end());
    std::sort(write_lat.begin(), write_lat.end());
    merged.resize(read_lat.size() + write_lat.size());
    std::merge(read_lat.begin(), read_lat.end(), write_lat.begin(),
               write_lat.end(), merged.begin());
    m.p95_ns = stats::percentile_sorted(merged, 0.95);
    m.p99_ns = stats::percentile_sorted(merged, 0.99);
  } else {
    merged.resize(read_lat.size() + write_lat.size());
    const auto split = std::copy(read_lat.begin(), read_lat.end(),
                                 merged.begin());
    std::copy(write_lat.begin(), write_lat.end(), split);
    m.p95_ns = percentile_select(merged, 0.95);
    m.p99_ns = percentile_select(merged, 0.99);
  }
  return {};
}

[[nodiscard]] inline util::Error empty_trace_error() {
  util::Error e;
  e.code = util::ErrorCode::kInvalidArgument;
  e.message = "trace has no requests to replay; measurement is undefined";
  return e;
}

}  // namespace mnemo::core::replay_detail
