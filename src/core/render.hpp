#pragma once

#include <string>

#include "core/artifacts.hpp"
#include "workload/trace.hpp"

namespace mnemo::core {

/// Stage-answer renderers shared by the CLI subcommands, Session::report
/// and the serve protocol. Serving mode promises responses bit-identical
/// to the single-client CLI answer, so there is exactly one place that
/// turns an artifact into text; presentation extras (cells-executed
/// counters, fault banners, cache diagnostics) stay in the CLI layer
/// because they depend on *how* a run was satisfied, not on the answer.

/// `mnemo characterize` body: workload summary + ordering head.
[[nodiscard]] std::string render_characterize(const workload::Trace& trace,
                                              const CharacterizeArtifact& c);

/// `mnemo measure` body: the baselines line, or the quarantined notice
/// when the grid is degraded.
[[nodiscard]] std::string render_measure(const MeasureArtifact& m);

/// The SLO verdict line (sweet spot or "no configuration..."). Only
/// meaningful for a non-degraded measure stage.
[[nodiscard]] std::string render_verdict(const AdviseArtifact& v);

/// `mnemo advise` body: baselines + verdict, degraded-aware.
[[nodiscard]] std::string render_advise(const MeasureArtifact& m,
                                        const AdviseArtifact& v);

/// The paper's CSV artifact: a (key_id, est_throughput_ops,
/// cost_reduction_factor) header, then one row per curve point after row
/// 0 (the SlowMem-only bound) — FastMem serves every key up to and
/// including the row's key. Throughput carries 10 significant digits and
/// the cost factor 6, formatted exactly as printf's "%.*g". The one
/// renderer behind ReportArtifact::csv and MnemoReport::write_csv.
[[nodiscard]] std::string render_curve_csv(const EstimateCurve& curve);

}  // namespace mnemo::core
