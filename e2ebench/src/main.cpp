// The end-to-end benchmark's entry point:
//
//   e2ebench --workload consult|sweep|serve --seed N --seconds S --trace 0|1
//            --digests FILE --out DIR
//   e2ebench --record-digests --digests FILE --out DIR
//
// Prints a human-readable table, then as its last line one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer ones. Exit 0 on success, 1 when an output
// check fails or the run breaks, 2 on a bad argument.

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "flows.hpp"
#include "harness.hpp"

namespace {

using namespace e2e;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},   {"peak_rss_mb", "MiB"},       {"p50_ms", "ms"},
    {"tail_ms", "ms"},  {"sim_mreq_per_s", "Mreq/s"}, {"ok_ratio", "ratio"},
};

/// Every workload prints every per-layer metric; a layer the workload
/// never reaches reads 0.
constexpr MetricDef kPerLayer[] = {
    {"workload.generate_ms", "ms"},
    {"core.session_ms", "ms"},
    {"core.characterize_ms", "ms"},
    {"core.measure_p50_ms", "ms"},
    {"core.measure_tail_ms", "ms"},
    {"core.measure_busy_threads", "threads"},
    {"core.estimate_ms", "ms"},
    {"core.advise_ms", "ms"},
    {"core.report_ms", "ms"},
    {"core.cells", "count"},
    {"core.profile_ms", "ms"},
    {"core.validate_ms", "ms"},
    {"core.cell_ms", "ms"},
    {"core.follower_cost_ratio", "ratio"},
    {"core.thr_err_median_pct", "%"},
    {"hybridmem.llc_hit_rate", "ratio"},
    {"serve.submit_us", "us"},
    {"serve.warm_run_ms", "ms"},
    {"serve.cold_run_ms", "ms"},
    {"serve.queue_p50_ms", "ms"},
    {"serve.queue_tail_ms", "ms"},
    {"serve.leads", "count"},
    {"serve.memo_hits", "count"},
    {"serve.joins", "count"},
    {"serve.join_ratio", "ratio"},
    {"serve.queue_hwm", "count"},
    {"serve.cells_run", "count"},
    {"serve.refused", "count"},
    {"serve.deadline_misses", "count"},
    {"core.store_files_per_req", "files/req"},
    {"core.store_bytes_per_req", "bytes/req"},
    {"serve.rss_growth_mb_per_kreq", "MiB/kreq"},
    {"load.late_p99_ms", "ms"},
    {"load.late_max_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"host.slowdown", "ratio"},
};

template <std::size_t N>
std::vector<Metric> collect(const MetricDef (&defs)[N],
                            const std::map<std::string, double>& values,
                            bool required) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    if (!known) throw std::logic_error("undeclared metric " + name);
  }
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() && required) {
      throw std::logic_error(std::string("metric ") + d.name + " missing");
    }
    out.push_back({d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
  return out;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_self_times(const std::vector<Span>& spans) {
  std::printf("spans (ms)\n  %-22s %8s %12s %12s\n", "name", "count",
              "total", "self");
  for (const auto& [name, t] : self_times(spans)) {
    std::printf("  %-22s %8zu %12.2f %12.2f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
}

int usage(const char* what) {
  std::fprintf(stderr,
               "e2ebench: %s\n"
               "usage: e2ebench --workload consult|sweep|serve --seed N "
               "--seconds 1..120 --trace 0|1 --digests FILE --out DIR\n"
               "       e2ebench --record-digests --digests FILE --out DIR\n",
               what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(std::vector<std::string_view>(argv + 1, argv + argc));
  } catch (const ArgError& e) {
    return usage(e.what());
  }
  try {
    std::filesystem::create_directories(opt.out_dir);
    if (opt.record) {
      Expectations expect(opt.digests, true);
      record_consult(expect);
      record_sweep(expect);
      record_serve(expect);
      expect.save();
      std::printf("wrote %s\n", opt.digests.c_str());
      return 0;
    }
    Tracer tracer(opt.trace);
    Expectations expect(opt.digests, false);
    // The reference kernel's table is built before Mnemo allocates
    // anything, so it is a mapping of its own in every run and peak RSS
    // does not depend on where the allocator found room for it.
    (void)reference_burst_ms();
    // The warm-up outlasts the ~1.1 s the host takes to bring idle cores
    // to speed; set-up follows it with no idle gap.
    warm_up(1.5);
    Context ctx{opt, tracer, expect};
    const Outcome o = opt.workload == "consult" ? run_consult(ctx)
                      : opt.workload == "sweep" ? run_sweep(ctx)
                                                : run_serve(ctx);
    Result r;
    r.correct = o.correct && expect.mismatches() == 0;
    r.attempted = o.attempted;
    r.failed = o.failed;
    const std::vector<Metric> e2e = collect(kEndToEnd, o.end_to_end, true);
    print_table("end-to-end", e2e);
    if (opt.trace) {
      r.metrics = collect(kPerLayer, o.layers, false);
      print_table("per layer (traced run)", r.metrics);
      const std::vector<Span> spans = tracer.spans();
      print_self_times(spans);
      const std::string path =
          (std::filesystem::path(opt.out_dir) /
           (opt.workload + "-seed" + std::to_string(opt.seed) + ".trace.json"))
              .string();
      tracer.write_chrome_trace(path);
      std::printf("trace: %s (%zu spans)\n", path.c_str(), spans.size());
    } else {
      r.metrics = e2e;
    }
    std::printf("output check: %s; %llu of %llu operations failed\n",
                r.correct ? "passed" : "FAILED",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    std::printf("%s\n", result_json(r).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
