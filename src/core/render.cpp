#include "core/render.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "util/bytes.hpp"

namespace mnemo::core {

std::string render_characterize(const workload::Trace& trace,
                                const CharacterizeArtifact& c) {
  std::ostringstream out;
  out << "workload: " << trace.name() << ": " << trace.key_count()
      << " keys, " << trace.requests().size() << " requests ("
      << util::format_bytes(trace.dataset_bytes()) << " dataset)\n";
  out << "ordering: " << to_string(c.ordering) << " | front of the order:";
  const std::size_t head = std::min<std::size_t>(8, c.order.size());
  for (std::size_t i = 0; i < head; ++i) out << ' ' << c.order[i];
  out << "\n";
  return out.str();
}

std::string render_measure(const MeasureArtifact& m) {
  if (m.degraded) {
    return "baselines quarantined: no estimate (see failure ledger)\n";
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "baselines: FastMem-only %.0f ops/s | SlowMem-only %.0f "
                "ops/s | sensitivity +%.1f%%\n",
                m.baselines.fast.throughput_ops,
                m.baselines.slow.throughput_ops,
                m.baselines.sensitivity() * 100.0);
  return line;
}

std::string render_verdict(const AdviseArtifact& v) {
  if (!v.result.choice) return "no configuration satisfies the SLO\n";
  const SloChoice& c = *v.result.choice;
  char line[160];
  std::snprintf(line, sizeof line,
                "sweet spot @ %.0f%% SLO: %zu keys (%s) in FastMem -> "
                "memory cost %.0f%% of FastMem-only (%.0f%% savings)\n",
                v.slo_slowdown * 100.0, c.point.fast_keys,
                util::format_bytes(c.point.fast_bytes).c_str(),
                c.cost_factor * 100.0, c.savings_vs_fast * 100.0);
  return line;
}

std::string render_advise(const MeasureArtifact& m, const AdviseArtifact& v) {
  if (v.degraded) return render_measure(m);  // the quarantined notice
  return render_measure(m) + render_verdict(v);
}

std::string render_curve_csv(const EstimateCurve& curve) {
  // std::to_chars with chars_format::general and a precision is specified
  // to produce what printf("%.*g") does, without the stream or the
  // per-field string the C formatter path pays for.
  std::string out = "key_id,est_throughput_ops,cost_reduction_factor\n";
  // The longest row: a 20-digit key, "-d.ddddddddde-308" and
  // "-d.ddddde-308", two commas and the newline — 53 bytes.
  char row[96];
  char* const end = row + sizeof row;
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    const EstimatePoint& p = curve.points[i];
    char* at = std::to_chars(row, end, p.last_key).ptr;
    *at++ = ',';
    at = std::to_chars(at, end, p.est_throughput_ops,
                       std::chars_format::general, 10)
             .ptr;
    *at++ = ',';
    at = std::to_chars(at, end, p.cost_factor, std::chars_format::general, 6)
             .ptr;
    *at++ = '\n';
    out.append(row, at);
  }
  return out;
}

}  // namespace mnemo::core
