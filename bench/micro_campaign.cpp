// Wall-clock campaign microbenchmark for the replay paths (DESIGN.md §12,
// §14): times the {placement × repeat} grid behind every sweep, baseline
// and session, at the library's default repeats, two ways. The per-cell
// arm replays every cell fully and serially — try_run_once on the shared
// CompiledTrace, each placement's repeats folded with average_runs — the
// oracle test_grouped_replay builds, timed at
// threads 1. The grouped arm runs the same grid through
// CampaignRunner::measure_grid at threads {1, 2, 8}: one leader per
// placement, its repeat siblings replaying the leader's skeleton as tasks
// of their own. The arms must return bit-identical grids — the bench
// exits 1 on any divergence — so every speedup is provably a pure
// implementation win. Results go to BENCH_campaign.json
// ("mnemo.bench.campaign/v4") for bench_diff.
//
//   ./micro_campaign                full run, writes BENCH_campaign.json
//   ./micro_campaign --smoke        tiny workload + schema self-check (CI)
//   ./micro_campaign --out FILE     alternate output path
//   ./micro_campaign --repeats N    timing repeats per arm

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/trace.hpp"
#include "workload/workload_spec.hpp"

namespace {

using namespace mnemo;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

struct Timing {
  double median_s = 0.0;
  double min_s = 0.0;
};

struct GroupedResult {
  std::size_t threads = 0;
  Timing timing;
};

struct StoreResult {
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  std::size_t grid_cells = 0;  ///< placements × repeats replayed per timing
  Timing per_cell;             ///< the serial per-cell arm, threads 1
  std::vector<GroupedResult> grouped;  ///< one per thread count

  /// Paired-median win of grouped replay at `g.threads` over replaying
  /// every cell fully and serially.
  [[nodiscard]] double speedup(const GroupedResult& g) const {
    return g.timing.median_s > 0.0 ? per_cell.median_s / g.timing.median_s
                                   : 0.0;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

workload::Trace make_trace(bool smoke) {
  workload::WorkloadSpec spec;
  spec.name = smoke ? "campaign_smoke" : "campaign";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = smoke ? 300 : 2'000;
  spec.request_count = smoke ? 3'000 : 20'000;
  spec.seed = 0x5eed;
  return workload::Trace::generate(spec);
}

std::vector<hybridmem::Placement> make_placements(
    const workload::Trace& trace) {
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  std::vector<hybridmem::Placement> placements;
  for (const double f : {0.0, 0.5, 1.0}) {
    placements.push_back(hybridmem::Placement::from_order(
        order, static_cast<std::size_t>(
                   f * static_cast<double>(trace.key_count()))));
  }
  return placements;
}

Timing reduce(const std::vector<double>& seconds) {
  return {median(seconds), *std::min_element(seconds.begin(), seconds.end())};
}

/// The per-cell arm: every cell a full replay on the caller's thread, no
/// skeleton sharing, each placement's repeats averaged in repeat order.
std::vector<core::RunMeasurement> per_cell_grid(
    const core::SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  const workload::CompiledTrace compiled(trace);
  std::vector<core::RunMeasurement> grid;
  std::vector<core::RunMeasurement> runs;
  for (const hybridmem::Placement& placement : placements) {
    runs.clear();
    for (int r = 0; r < engine.config().repeats; ++r) {
      runs.push_back(engine.try_run_once(compiled, placement, r).value());
    }
    grid.push_back(core::average_runs(runs));
  }
  return grid;
}

StoreResult run_store(const workload::Trace& trace,
                      const std::vector<hybridmem::Placement>& placements,
                      kvstore::StoreKind store, int repeats) {
  core::SensitivityConfig cfg;  // the library's default repeats
  cfg.store = store;
  const core::SensitivityEngine engine(cfg);

  std::vector<double> per_cell_s;
  std::vector<std::vector<double>> grouped_s(std::size(kThreadCounts));
  for (int r = 0; r < repeats; ++r) {
    util::WallTimer timer;
    const std::vector<core::RunMeasurement> reference =
        per_cell_grid(engine, trace, placements);
    per_cell_s.push_back(timer.elapsed_s());
    for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
      core::CampaignRunner runner(kThreadCounts[t]);
      timer.reset();
      const std::vector<core::RunMeasurement> grid =
          runner.measure_grid(engine, trace, placements);
      grouped_s[t].push_back(timer.elapsed_s());
      // The arms must agree bit for bit or the comparison is meaningless —
      // refuse to report anything on divergence.
      if (grid != reference) {
        std::fprintf(stderr,
                     "micro_campaign: grouped grid at %zu threads diverged "
                     "from per-cell replay\n",
                     kThreadCounts[t]);
        std::exit(1);
      }
    }
  }

  StoreResult result;
  result.store = store;
  result.grid_cells =
      placements.size() * static_cast<std::size_t>(cfg.repeats);
  result.per_cell = reduce(per_cell_s);
  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    result.grouped.push_back({kThreadCounts[t], reduce(grouped_s[t])});
  }
  return result;
}

void write_json(const std::string& path, const workload::Trace& trace,
                bool smoke, int repeats,
                const std::vector<StoreResult>& stores) {
  double per_cell_total = 0.0;
  double grouped_total = 0.0;  ///< threads 1, like for like
  for (const StoreResult& s : stores) {
    per_cell_total += s.per_cell.median_s;
    grouped_total += s.grouped.front().timing.median_s;
  }
  const double aggregate =
      grouped_total > 0.0 ? per_cell_total / grouped_total : 0.0;

  std::ostringstream out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return std::string(buf);
  };
  const auto timing = [&](const Timing& t) {
    return "\"median_s\": " + num(t.median_s) +
           ", \"min_s\": " + num(t.min_s);
  };
  out << "{\n";
  out << "  \"schema\": \"mnemo.bench.campaign/v4\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"workload\": {\"name\": \"" << trace.name()
      << "\", \"key_count\": " << trace.key_count()
      << ", \"request_count\": " << trace.requests().size() << "},\n";
  // One row per (store, threads) of the grouped arm; grouped_speedup is
  // the serial per-cell median over this row's median.
  out << "  \"results\": [\n";
  std::size_t rows = stores.size() * std::size(kThreadCounts);
  for (const StoreResult& s : stores) {
    for (const GroupedResult& g : s.grouped) {
      out << "    {\"store\": \"" << kvstore::to_string(s.store)
          << "\", \"threads\": " << g.threads
          << ", \"grid_cells\": " << s.grid_cells << ",\n";
      out << "     \"grouped\": {" << timing(g.timing) << "},\n";
      out << "     \"grouped_speedup\": " << num(s.speedup(g)) << "}"
          << (--rows > 0 ? "," : "") << "\n";
    }
  }
  out << "  ],\n";
  out << "  \"per_cell\": [\n";
  for (std::size_t i = 0; i < stores.size(); ++i) {
    const StoreResult& s = stores[i];
    out << "    {\"store\": \"" << kvstore::to_string(s.store)
        << "\", \"threads\": 1, \"grid_cells\": " << s.grid_cells << ", "
        << timing(s.per_cell) << "}" << (i + 1 < stores.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n";
  out << "  \"aggregate\": {\"per_cell_s\": " << num(per_cell_total)
      << ", \"grouped_t1_s\": " << num(grouped_total)
      << ", \"grouped_speedup\": " << num(aggregate) << "}\n";
  out << "}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file.good()) {
    std::fprintf(stderr, "micro_campaign: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Schema self-check for --smoke: stable keys present, braces balanced,
/// one result object per (store, threads) cell of the grouped arm plus one
/// per store of the per-cell arm.
bool validate_json(const std::string& path, std::size_t expected_results) {
  std::ifstream file(path);
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string text = ss.str();
  if (text.empty()) return false;
  for (const char* key :
       {"\"schema\": \"mnemo.bench.campaign/v4\"", "\"repeats\"",
        "\"workload\"", "\"results\"", "\"per_cell\"", "\"grouped\"",
        "\"median_s\"", "\"min_s\"", "\"grouped_speedup\"",
        "\"aggregate\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "micro_campaign: missing key %s\n", key);
      return false;
    }
  }
  long depth = 0;
  for (const char ch : text) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (depth < 0) return false;
  }
  if (depth != 0) return false;
  std::size_t stores = 0;
  for (std::size_t pos = text.find("\"store\""); pos != std::string::npos;
       pos = text.find("\"store\"", pos + 1)) {
    ++stores;
  }
  return stores == expected_results;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "micro_campaign",
      "serial per-cell vs grouped campaign wall-clock benchmark");
  parser.add_flag("smoke", "tiny workload + schema self-check (CI)");
  parser.add_option("out", "output JSON path", "BENCH_campaign.json");
  parser.add_option("repeats", "timing repeats per arm", "");
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  if (!parser.parse(args, &error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), parser.help().c_str());
    return 2;
  }
  const bool smoke = parser.has_flag("smoke");
  const int repeats = parser.get("repeats").empty()
                          ? (smoke ? 2 : 5)
                          : static_cast<int>(parser.get_u64("repeats"));
  const std::string out = parser.get("out");

  const workload::Trace trace = make_trace(smoke);
  const std::vector<hybridmem::Placement> placements =
      make_placements(trace);
  const std::vector<kvstore::StoreKind> stores = {
      kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
      kvstore::StoreKind::kDynaStore};

  std::printf(
      "== micro_campaign: %s, %llu keys, %zu requests, %d repeats ==\n",
      trace.name().c_str(),
      static_cast<unsigned long long>(trace.key_count()),
      trace.requests().size(), repeats);

  std::vector<StoreResult> results;
  for (const kvstore::StoreKind store : stores) {
    const StoreResult result = run_store(trace, placements, store, repeats);
    const std::string name(kvstore::to_string(store));
    std::printf("%-10s per-cell   threads 1  %8.1f ms\n", name.c_str(),
                result.per_cell.median_s * 1e3);
    for (const GroupedResult& g : result.grouped) {
      std::printf("%-10s grouped    threads %zu  %8.1f ms  speedup %.2fx\n",
                  name.c_str(), g.threads, g.timing.median_s * 1e3,
                  result.speedup(g));
    }
    results.push_back(result);
  }

  write_json(out, trace, smoke, repeats, results);
  std::printf("wrote %s\n", out.c_str());
  if (smoke && !validate_json(out, results.size() *
                                       (std::size(kThreadCounts) + 1))) {
    std::fprintf(stderr, "micro_campaign: schema validation FAILED\n");
    return 1;
  }
  if (smoke) std::printf("schema ok\n");
  return 0;
}
