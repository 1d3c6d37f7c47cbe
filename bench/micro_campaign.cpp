// Wall-clock campaign microbenchmark for the replay paths (DESIGN.md §12,
// §14): times the same measure_grid — the engine behind every sweep,
// baseline and session — at the library's default repeats under
// ReplayMode::kLegacy (per-cell rehash/redigest on the heap),
// ReplayMode::kCompiled (every cell a full try_run_once on the shared
// CompiledTrace with a per-worker arena, no sharing) and
// ReplayMode::kGrouped (the default: one leader per placement, its repeat
// siblings replaying the leader's skeleton as tasks of their own). All
// arms return measurements that are asserted bit-identical here — the
// bench refuses to report on any divergence — so every speedup is
// provably a pure implementation win. Results go to BENCH_campaign.json
// ("mnemo.bench.campaign/v3") for bench_diff.
//
//   ./micro_campaign                full run, writes BENCH_campaign.json
//   ./micro_campaign --smoke        tiny workload + schema self-check (CI)
//   ./micro_campaign --out FILE     alternate output path
//   ./micro_campaign --repeats N    timing repeats per (store, threads) cell

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"
#include "workload/trace.hpp"
#include "workload/workload_spec.hpp"

namespace {

using namespace mnemo;

struct CellResult {
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  std::size_t threads = 0;
  std::size_t grid_cells = 0;  ///< placements × repeats replayed per timing
  double legacy_median_s = 0.0;
  double legacy_min_s = 0.0;
  double compiled_median_s = 0.0;
  double compiled_min_s = 0.0;
  double grouped_median_s = 0.0;
  double grouped_min_s = 0.0;

  [[nodiscard]] double speedup() const {
    return compiled_median_s > 0.0 ? legacy_median_s / compiled_median_s
                                   : 0.0;
  }
  /// Paired-median win of grouped skeleton replay over replaying every
  /// cell fully.
  [[nodiscard]] double grouped_speedup() const {
    return grouped_median_s > 0.0 ? compiled_median_s / grouped_median_s
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

CellResult run_cell(const workload::Trace& trace,
                    const std::vector<hybridmem::Placement>& placements,
                    kvstore::StoreKind store, std::size_t threads,
                    int repeats) {
  core::SensitivityConfig cfg;  // the library's default repeats
  cfg.store = store;
  cfg.threads = threads;
  const core::SensitivityEngine engine(cfg);

  std::vector<double> legacy_s;
  std::vector<double> compiled_s;
  std::vector<double> grouped_s;
  std::vector<core::RunMeasurement> legacy_grid;
  std::vector<core::RunMeasurement> compiled_grid;
  std::vector<core::RunMeasurement> grouped_grid;
  for (int r = 0; r < repeats; ++r) {
    {
      core::CampaignRunner runner(threads);
      runner.set_replay_mode(core::ReplayMode::kLegacy);
      util::WallTimer timer;
      legacy_grid = runner.measure_grid(engine, trace, placements);
      legacy_s.push_back(timer.elapsed_s());
    }
    {
      core::CampaignRunner runner(threads);
      runner.set_replay_mode(core::ReplayMode::kCompiled);
      util::WallTimer timer;
      compiled_grid = runner.measure_grid(engine, trace, placements);
      compiled_s.push_back(timer.elapsed_s());
    }
    {
      core::CampaignRunner runner(threads);  // default: ReplayMode::kGrouped
      util::WallTimer timer;
      grouped_grid = runner.measure_grid(engine, trace, placements);
      grouped_s.push_back(timer.elapsed_s());
    }
    // The arms must agree bit for bit or the comparison is meaningless —
    // refuse to report anything on divergence.
    if (legacy_grid != compiled_grid) {
      std::fprintf(stderr,
                   "micro_campaign: compiled grid diverged from legacy\n");
      std::exit(1);
    }
    if (grouped_grid != compiled_grid) {
      std::fprintf(stderr,
                   "micro_campaign: grouped grid diverged from compiled\n");
      std::exit(1);
    }
  }

  CellResult cell;
  cell.store = store;
  cell.threads = threads;
  cell.grid_cells =
      placements.size() * static_cast<std::size_t>(cfg.repeats);
  cell.legacy_median_s = median(legacy_s);
  cell.legacy_min_s = *std::min_element(legacy_s.begin(), legacy_s.end());
  cell.compiled_median_s = median(compiled_s);
  cell.compiled_min_s =
      *std::min_element(compiled_s.begin(), compiled_s.end());
  cell.grouped_median_s = median(grouped_s);
  cell.grouped_min_s = *std::min_element(grouped_s.begin(), grouped_s.end());
  return cell;
}

void write_json(const std::string& path, const workload::Trace& trace,
                bool smoke, int repeats,
                const std::vector<CellResult>& cells) {
  double legacy_total = 0.0;
  double compiled_total = 0.0;
  double grouped_total = 0.0;
  for (const CellResult& c : cells) {
    legacy_total += c.legacy_median_s;
    compiled_total += c.compiled_median_s;
    grouped_total += c.grouped_median_s;
  }
  const double aggregate =
      compiled_total > 0.0 ? legacy_total / compiled_total : 0.0;
  const double grouped_aggregate =
      grouped_total > 0.0 ? compiled_total / grouped_total : 0.0;

  std::ostringstream out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return std::string(buf);
  };
  out << "{\n";
  out << "  \"schema\": \"mnemo.bench.campaign/v3\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"workload\": {\"name\": \"" << trace.name()
      << "\", \"key_count\": " << trace.key_count()
      << ", \"request_count\": " << trace.requests().size() << "},\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    {\"store\": \"" << kvstore::to_string(c.store)
        << "\", \"threads\": " << c.threads
        << ", \"grid_cells\": " << c.grid_cells << ",\n";
    out << "     \"legacy\": {\"median_s\": " << num(c.legacy_median_s)
        << ", \"min_s\": " << num(c.legacy_min_s) << "},\n";
    out << "     \"compiled\": {\"median_s\": " << num(c.compiled_median_s)
        << ", \"min_s\": " << num(c.compiled_min_s) << "},\n";
    out << "     \"grouped\": {\"median_s\": " << num(c.grouped_median_s)
        << ", \"min_s\": " << num(c.grouped_min_s) << "},\n";
    out << "     \"speedup\": " << num(c.speedup())
        << ", \"grouped_speedup\": " << num(c.grouped_speedup()) << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"aggregate\": {\"legacy_s\": " << num(legacy_total)
      << ", \"compiled_s\": " << num(compiled_total)
      << ", \"grouped_s\": " << num(grouped_total)
      << ", \"speedup\": " << num(aggregate)
      << ", \"grouped_speedup\": " << num(grouped_aggregate) << "}\n";
  out << "}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file.good()) {
    std::fprintf(stderr, "micro_campaign: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Schema self-check for --smoke: stable keys present, braces balanced,
/// one result object per (store, threads) cell.
bool validate_json(const std::string& path, std::size_t expected_results) {
  std::ifstream file(path);
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string text = ss.str();
  if (text.empty()) return false;
  for (const char* key :
       {"\"schema\": \"mnemo.bench.campaign/v3\"", "\"repeats\"",
        "\"workload\"", "\"results\"", "\"legacy\"", "\"compiled\"",
        "\"grouped\"", "\"median_s\"", "\"speedup\"",
        "\"grouped_speedup\"", "\"aggregate\""}) {
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
      "legacy vs per-cell compiled vs grouped campaign wall-clock "
      "benchmark");
  parser.add_flag("smoke", "tiny workload + schema self-check (CI)");
  parser.add_option("out", "output JSON path", "BENCH_campaign.json");
  parser.add_option("repeats", "timing repeats per cell", "");
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
  const std::vector<std::size_t> thread_counts = {1, 2, 8};

  std::printf(
      "== micro_campaign: %s, %llu keys, %zu requests, %d repeats ==\n",
      trace.name().c_str(),
      static_cast<unsigned long long>(trace.key_count()),
      trace.requests().size(), repeats);

  std::vector<CellResult> cells;
  for (const kvstore::StoreKind store : stores) {
    for (const std::size_t threads : thread_counts) {
      const CellResult cell =
          run_cell(trace, placements, store, threads, repeats);
      std::printf(
          "%-10s threads %zu  legacy %8.1f ms  compiled %8.1f ms  "
          "grouped %8.1f ms  speedup %.2fx  grouped %.2fx\n",
          std::string(kvstore::to_string(store)).c_str(), threads,
          cell.legacy_median_s * 1e3, cell.compiled_median_s * 1e3,
          cell.grouped_median_s * 1e3, cell.speedup(),
          cell.grouped_speedup());
      cells.push_back(cell);
    }
  }

  write_json(out, trace, smoke, repeats, cells);
  std::printf("wrote %s\n", out.c_str());
  if (smoke && !validate_json(out, cells.size())) {
    std::fprintf(stderr, "micro_campaign: schema validation FAILED\n");
    return 1;
  }
  if (smoke) std::printf("schema ok\n");
  return 0;
}
