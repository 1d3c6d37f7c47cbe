#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/estimate_engine.hpp"
#include "core/pattern_engine.hpp"
#include "core/sensitivity_engine.hpp"
#include "core/slo_advisor.hpp"

namespace mnemo::core {

/// How Mnemo orders keys for incremental FastMem sizing — the three
/// deployment scenarios of the paper's Figure 2.
enum class OrderingPolicy {
  /// Stand-alone (Fig 2a): keys in workload first-touch order.
  kTouchOrder,
  /// MnemoT (Fig 2c): the key-value-store-optimized tiering order
  /// (weight = accesses / size).
  kTiered,
  /// Existing tiering solution + stand-alone (Fig 2b): the caller supplies
  /// the ordering produced by an external tool.
  kExternal,
};

std::string_view to_string(OrderingPolicy policy);

/// Full configuration of a Mnemo profiling session: the measurement
/// settings (store, platform, repeats, seed, threads, fault plan —
/// SensitivityConfig, so a MnemoConfig is the Sensitivity Engine's config
/// as-is) plus the analysis knobs.
struct MnemoConfig : SensitivityConfig {
  double price_factor = CostModel::kPaperPriceFactor;
  OrderingPolicy ordering = OrderingPolicy::kTouchOrder;
  EstimateModel estimate_model = EstimateModel::kSizeAware;
  double slo_slowdown = SloAdvisor::kPaperSlowdown;
  /// Optional cooperative cancellation (not owned; must outlive the
  /// session's stage calls). Checked at stage entry and between campaign
  /// cells; a canceled stage throws util::CanceledError. Deliberately not
  /// part of any cache key: a deadline changes whether an answer arrives,
  /// never what it is. Not a measurement setting: the session hands it to
  /// the CampaignRunner that runs the grid.
  const util::CancelToken* cancel = nullptr;
};

/// Everything a profiling session produces: the measured baselines, the
/// key ordering, the full estimate curve, and the SLO sweet spot.
struct MnemoReport {
  std::string workload;
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  OrderingPolicy ordering = OrderingPolicy::kTouchOrder;
  PerfBaselines baselines;
  AccessPattern pattern;
  std::vector<std::uint64_t> order;
  EstimateCurve curve;
  std::optional<SloChoice> slo_choice;

  /// Quarantine ledger of the baseline measurement campaign; empty on a
  /// healthy platform (or when every faulted cell came back clean).
  std::vector<CellFailure> cell_failures;
  /// True when a baseline placement lost at least one repeat to
  /// quarantine: the curve and SLO choice are then not populated, because
  /// any value derived from a perturbed baseline would silently differ
  /// from the fault-free profile.
  bool degraded = false;

  /// Some cells were quarantined — the report carries partial results.
  [[nodiscard]] bool partial() const noexcept { return !cell_failures.empty(); }

  /// The paper's output artifact: a CSV whose rows are
  /// (key id, estimated throughput ops/s, cost reduction factor) —
  /// FastMem serves all keys up to and including the row's key. Writes
  /// render_curve_csv(curve) to `path`, the bytes Session::report() puts
  /// in ReportArtifact::csv; throws std::runtime_error when `path` cannot
  /// be opened.
  void write_csv(const std::string& path) const;
};

/// The Mnemo facade: wires Sensitivity -> Pattern -> Estimate -> SLO
/// advisor into the one-call profiling flow of the paper's Figure 6.
/// MnemoT, the extended tool, is this facade with `ordering = kTiered`.
class Mnemo {
 public:
  explicit Mnemo(MnemoConfig config = MnemoConfig{});

  /// Profile a workload descriptor end to end.
  [[nodiscard]] MnemoReport profile(const workload::Trace& trace) const;

  /// Scenario 2b: estimate along an externally produced tiering order.
  [[nodiscard]] MnemoReport profile_with_order(
      const workload::Trace& trace,
      std::vector<std::uint64_t> external_order) const;

  /// Validate one curve row by actually executing that placement
  /// (measured counterpart of an estimate — Fig 5's point markers).
  [[nodiscard]] RunMeasurement validate(
      const workload::Trace& trace, const std::vector<std::uint64_t>& order,
      const EstimatePoint& point) const;

  [[nodiscard]] const MnemoConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SensitivityEngine& sensitivity() const noexcept {
    return sensitivity_;
  }

 private:
  MnemoConfig config_;
  /// Kept for validate() and direct measurement callers; the profiling
  /// flow itself runs through core::Session (the one orchestration path).
  SensitivityEngine sensitivity_;
};

}  // namespace mnemo::core
