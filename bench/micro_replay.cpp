// Wall-clock replay microbenchmark: the tool's own speed, not the
// simulated system's. Every campaign cell a leader replays fully is one
// populate(compiled) plus one hinted execute loop over the CompiledTrace's
// flat streams, through DualServer → HybridMemory → LlcModel — exactly the
// path timed here (the trace compiles once, outside the timers, as it does
// once per grid). Ops/sec here is the multiplier on everything the repo
// reproduces. Results go to BENCH_replay.json in a stable schema
// ("mnemo.bench.replay/v2") to diff against with bench_diff.
//
//   ./micro_replay                 full run, writes BENCH_replay.json
//   ./micro_replay --smoke         few iterations + schema self-check (CI)
//   ./micro_replay --out FILE      alternate output path
//   ./micro_replay --repeats N     timing repeats per cell (min/median)

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "hybridmem/emulation_profile.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/trace.hpp"
#include "workload/workload_spec.hpp"

namespace {

using namespace mnemo;

struct PhaseTiming {
  std::uint64_t ops = 0;
  double min_ops_per_s = 0.0;
  double median_ops_per_s = 0.0;
};

struct CellResult {
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  double fast_fraction = 0.0;
  PhaseTiming load;
  PhaseTiming execute;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

PhaseTiming reduce(std::uint64_t ops, const std::vector<double>& seconds) {
  PhaseTiming t;
  t.ops = ops;
  std::vector<double> rates;
  rates.reserve(seconds.size());
  for (const double s : seconds) {
    rates.push_back(static_cast<double>(ops) / s);
  }
  t.min_ops_per_s = *std::min_element(rates.begin(), rates.end());
  t.median_ops_per_s = median(rates);
  return t;
}

workload::Trace make_trace(bool smoke) {
  workload::WorkloadSpec spec;
  spec.name = smoke ? "replay_smoke" : "replay";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = smoke ? 300 : 4'000;
  spec.request_count = smoke ? 3'000 : 200'000;
  spec.seed = 0x5eed;
  return workload::Trace::generate(spec);
}

CellResult run_cell(const workload::CompiledTrace& compiled,
                    kvstore::StoreKind store, double fast_fraction,
                    int repeats) {
  const workload::Trace& trace = compiled.trace();
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  const auto prefix = static_cast<std::size_t>(
      fast_fraction * static_cast<double>(trace.key_count()));
  const hybridmem::Placement placement =
      hybridmem::Placement::from_order(order, prefix);

  const std::uint64_t need = std::max<std::uint64_t>(
      trace.dataset_bytes() * 2, 64ULL * 1024 * 1024);

  std::vector<double> load_s;
  std::vector<double> exec_s;
  for (int r = 0; r < repeats; ++r) {
    hybridmem::HybridMemory memory(
        hybridmem::paper_testbed_with_capacity(need));
    kvstore::StoreConfig cfg;
    cfg.seed = 0xbe7c + static_cast<std::uint64_t>(r);
    kvstore::DualServer servers(memory, store, cfg);

    util::WallTimer timer;
    if (!servers.populate(compiled, placement).ok()) {
      std::fprintf(stderr, "micro_replay: populate failed\n");
      std::exit(1);
    }
    load_s.push_back(timer.elapsed_s());

    memory.drop_caches();
    const std::span<const workload::OpType> ops = compiled.ops();
    const std::span<const std::uint32_t> keys = compiled.keys();
    const std::span<const std::uint64_t> hashes = compiled.key_hashes();
    timer.reset();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint32_t key = keys[i];
      const util::Result<kvstore::OpResult> served =
          servers.execute(ops[i], key, {hashes[key]});
      if (!served.ok() || !served.value().ok) {
        std::fprintf(stderr, "micro_replay: execute failed\n");
        std::exit(1);
      }
    }
    exec_s.push_back(timer.elapsed_s());
  }

  CellResult cell;
  cell.store = store;
  cell.fast_fraction = fast_fraction;
  cell.load = reduce(trace.initial_key_count(), load_s);
  cell.execute = reduce(trace.requests().size(), exec_s);
  return cell;
}

void write_json(const std::string& path, const workload::Trace& trace,
                bool smoke, int repeats,
                const std::vector<CellResult>& cells) {
  std::ostringstream out;
  char buf[64];
  out << "{\n";
  out << "  \"schema\": \"mnemo.bench.replay/v2\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"workload\": {\"name\": \"" << trace.name()
      << "\", \"key_count\": " << trace.key_count()
      << ", \"request_count\": " << trace.requests().size() << "},\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::snprintf(buf, sizeof buf, "%.3f", c.fast_fraction);
    out << "    {\"store\": \"" << kvstore::to_string(c.store)
        << "\", \"fast_fraction\": " << buf << ",\n";
    const auto phase = [&](const char* name, const PhaseTiming& t,
                           const char* tail) {
      out << "     \"" << name << "\": {\"ops\": " << t.ops;
      std::snprintf(buf, sizeof buf, "%.1f", t.min_ops_per_s);
      out << ", \"min_ops_per_s\": " << buf;
      std::snprintf(buf, sizeof buf, "%.1f", t.median_ops_per_s);
      out << ", \"median_ops_per_s\": " << buf << "}" << tail << "\n";
    };
    phase("load", c.load, ",");
    phase("execute", c.execute, "");
    out << "    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file.good()) {
    std::fprintf(stderr, "micro_replay: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Schema self-check for --smoke: re-read the file and verify the stable
/// keys are present and the JSON braces balance. Not a full parser — just
/// enough to catch a malformed writer before a CI consumer does.
bool validate_json(const std::string& path, std::size_t expected_results) {
  std::ifstream file(path);
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string text = ss.str();
  if (text.empty()) return false;
  for (const char* key :
       {"\"schema\": \"mnemo.bench.replay/v2\"", "\"repeats\"",
        "\"workload\"", "\"results\"", "\"load\"", "\"execute\"",
        "\"min_ops_per_s\"", "\"median_ops_per_s\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "micro_replay: missing key %s\n", key);
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
  util::ArgParser parser("micro_replay",
                         "wall-clock replay throughput microbenchmark");
  parser.add_flag("smoke", "tiny workload + schema self-check (CI)");
  parser.add_option("out", "output JSON path", "BENCH_replay.json");
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
  const workload::CompiledTrace compiled(trace);
  const std::vector<kvstore::StoreKind> stores = {
      kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
      kvstore::StoreKind::kDynaStore};
  const std::vector<double> splits = {0.0, 0.5, 1.0};

  std::printf("== micro_replay: %s, %llu keys, %zu requests, %d repeats ==\n",
              trace.name().c_str(),
              static_cast<unsigned long long>(trace.key_count()),
              trace.requests().size(), repeats);

  std::vector<CellResult> cells;
  for (const kvstore::StoreKind store : stores) {
    for (const double split : splits) {
      const CellResult cell = run_cell(compiled, store, split, repeats);
      std::printf(
          "%-10s split %.2f  load %12.0f ops/s (min %12.0f)  "
          "execute %12.0f ops/s (min %12.0f)\n",
          std::string(kvstore::to_string(store)).c_str(), split,
          cell.load.median_ops_per_s, cell.load.min_ops_per_s,
          cell.execute.median_ops_per_s, cell.execute.min_ops_per_s);
      cells.push_back(cell);
    }
  }

  write_json(out, trace, smoke, repeats, cells);
  std::printf("wrote %s\n", out.c_str());
  if (smoke && !validate_json(out, cells.size())) {
    std::fprintf(stderr, "micro_replay: schema validation FAILED\n");
    return 1;
  }
  if (smoke) std::printf("schema ok\n");
  return 0;
}
