// Byte-identity goldens for the replay path (labelled `concurrency` +
// `faults`): fig5-style validation sweeps across all three store
// architectures, faulted degraded campaigns (poison, transient and
// bandwidth-window plans on every store), the dynamic tierer's request
// loop and the report stage's curve CSV, serialized with exact (hexfloat)
// formatting — the CSV by byte count and digest — and pinned to fixture
// files. Any change to simulated results — an RNG stream, an
// eviction order, an accounting rule — shows up here as a fixture
// mismatch. The sessions' cache keys are pinned the same way. Campaign
// snapshots are checked at every thread count in {1, 2, 8}. Every replay
// fixture also held under the raw-Trace replay that the compiled replay
// superseded, so they stand in for it as the equivalence oracle; the CSV
// fixture was generated before the renderer moved from util::csv::Writer
// to std::to_chars, and the cache-key fixture by a build that still
// hashed a payload-mode setting into the measure key.
//
// Regenerate (only for an *intentional* semantics change, and say so in
// the commit):  MNEMO_WRITE_GOLDEN=1 ./tests_golden

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/migration.hpp"
#include "core/sensitivity_engine.hpp"
#include "core/session.hpp"
#include "kvstore/factory.hpp"
#include "util/hash.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

workload::Trace golden_trace() {
  workload::WorkloadSpec spec;
  spec.name = "golden_replay";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 300;
  spec.request_count = 3'000;
  spec.seed = 0x901de;
  return workload::Trace::generate(spec);
}

void serialize(std::ostringstream& out, const RunMeasurement& m) {
  out << "rt=" << hex(m.runtime_ns) << " thr=" << hex(m.throughput_ops)
      << " avg=" << hex(m.avg_latency_ns) << " r=" << hex(m.avg_read_ns)
      << " w=" << hex(m.avg_write_ns) << " p95=" << hex(m.p95_ns)
      << " p99=" << hex(m.p99_ns) << " req=" << m.requests
      << " reads=" << m.reads << " writes=" << m.writes
      << " llc=" << hex(m.llc_hit_rate)
      << " rvb=" << hex(m.read_vs_bytes.intercept) << ","
      << hex(m.read_vs_bytes.slope)
      << " wvb=" << hex(m.write_vs_bytes.intercept) << ","
      << hex(m.write_vs_bytes.slope) << " hist=";
  for (std::size_t i = 0; i < stats::LogHistogram::kBuckets; ++i) {
    if (m.latency_hist.bucket(i) != 0) {
      out << i << ":" << m.latency_hist.bucket(i) << ";";
    }
  }
  out << " faults=" << m.faults.transient_faults << ","
      << m.faults.transient_retries << "," << m.faults.transient_failures
      << "," << m.faults.poison_hits << "," << m.faults.degraded_accesses;
}

/// Fig5-style validation sweep: measured placements at prefix fractions of
/// the identity key order, for every store architecture, repeats averaged
/// by the campaign grid.
std::string sweep_snapshot(const workload::Trace& trace,
                           std::size_t threads) {
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  const double fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  std::ostringstream out;
  for (const kvstore::StoreKind store :
       {kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
        kvstore::StoreKind::kDynaStore}) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 2;
    const SensitivityEngine engine(cfg);

    std::vector<hybridmem::Placement> placements;
    for (const double f : fractions) {
      placements.push_back(hybridmem::Placement::from_order(
          order, static_cast<std::size_t>(
                     f * static_cast<double>(trace.key_count()))));
    }
    CampaignRunner runner(threads);
    const std::vector<RunMeasurement> grid =
        runner.measure_grid(engine, trace, placements);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      out << kvstore::to_string(store) << " fast_keys="
          << placements[i].fast_keys() << " ";
      serialize(out, grid[i]);
      out << "\n";
    }
  }
  return out.str();
}

/// Degraded campaign on `store` under `plan`: all-FastMem and
/// all-SlowMem cells, two repeats each, run checked — measurements and the
/// failure ledger both go into the snapshot.
void degraded_campaign(std::ostringstream& out, const workload::Trace& trace,
                       kvstore::StoreKind store,
                       const faultinject::FaultPlan& plan,
                       std::size_t threads) {
  SensitivityConfig cfg;
  cfg.store = store;
  cfg.repeats = 2;
  cfg.faults = plan;
  const SensitivityEngine engine(cfg);

  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);
  const hybridmem::Placement all_slow(trace.key_count(),
                                      hybridmem::NodeId::kSlow);
  const std::vector<CampaignCell> cells = {
      {all_fast, 0}, {all_slow, 0}, {all_fast, 1}, {all_slow, 1}};

  CampaignRunner runner(threads);
  const CampaignResult result = runner.run_checked(engine, trace, cells);

  for (std::size_t i = 0; i < result.measurements.size(); ++i) {
    out << "cell " << i << " ";
    if (result.measurements[i].has_value()) {
      serialize(out, *result.measurements[i]);
    } else {
      out << "quarantined";
    }
    out << "\n";
  }
  for (const CellFailure& f : result.failures) {
    out << "failure cell=" << f.cell << " fast_keys=" << f.fast_keys
        << " repeat=" << f.repeat << " attempts=" << f.attempts
        << " code=" << static_cast<int>(f.error.code)
        << " faults=" << f.faults.transient_faults << ","
        << f.faults.transient_retries << "," << f.faults.transient_failures
        << "," << f.faults.poison_hits << "," << f.faults.degraded_accesses
        << "\n";
  }
}

faultinject::FaultPlan poison_plan() {
  faultinject::FaultPlan plan;
  plan.poison_rate = 0.2;
  return plan;
}

/// A poison plan that quarantines every all-SlowMem cell while
/// all-FastMem cells stay clean, on Vermilion.
std::string degraded_snapshot(const workload::Trace& trace,
                              std::size_t threads) {
  std::ostringstream out;
  degraded_campaign(out, trace, kvstore::StoreKind::kVermilion,
                    poison_plan(), threads);
  return out.str();
}

/// Every store under each fault class: poison, transient read faults that
/// quarantine some all-SlowMem cells and leave others clean, and
/// bandwidth-degradation windows.
std::string degraded_plans_snapshot(const workload::Trace& trace,
                                    std::size_t threads) {
  faultinject::FaultPlan transient;
  transient.transient_read_rate = 2e-3;
  faultinject::FaultPlan bandwidth;
  bandwidth.bw_period_accesses = 1'000;
  bandwidth.bw_window_accesses = 100;
  std::ostringstream out;
  for (const kvstore::StoreKind store :
       {kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
        kvstore::StoreKind::kDynaStore}) {
    for (const faultinject::FaultPlan& plan :
         {poison_plan(), transient, bandwidth}) {
      out << "== " << kvstore::to_string(store) << " " << plan.summary()
          << "\n";
      degraded_campaign(out, trace, store, plan, threads);
    }
  }
  return out.str();
}

/// DynamicTierer::run on every store: a predictive foreground run, a
/// reactive background run under a per-epoch migration cap, and a run
/// whose transient fault plan drops requests — then the static oracle
/// those runs are compared against.
std::string tiering_snapshot(const workload::Trace& trace) {
  MigrationConfig predictive;
  predictive.fast_budget_bytes = trace.dataset_bytes() / 3;
  predictive.epoch_requests = 500;
  MigrationConfig capped = predictive;
  capped.predictive = false;
  capped.foreground = false;
  capped.migration_bytes_per_epoch = trace.dataset_bytes() / 50;
  faultinject::FaultPlan faults;
  faults.transient_read_rate = 0.05;
  faults.transient_recover_prob = 0.1;

  std::ostringstream out;
  for (const kvstore::StoreKind store :
       {kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
        kvstore::StoreKind::kDynaStore}) {
    SensitivityConfig healthy;
    healthy.store = store;
    healthy.repeats = 1;
    SensitivityConfig faulted = healthy;
    faulted.faults = faults;
    const struct {
      const char* name;
      SensitivityConfig sensitivity;
      MigrationConfig migration;
    } runs[] = {{"predictive", healthy, predictive},
                {"capped", healthy, capped},
                {"faulted", faulted, predictive}};
    for (const auto& run : runs) {
      const MigrationResult r =
          DynamicTierer(run.sensitivity, run.migration).run(trace);
      out << kvstore::to_string(store) << " " << run.name
          << " epochs=" << r.epochs << " migrations=" << r.migrations
          << " bytes=" << r.bytes_migrated
          << " migration_ns=" << hex(r.migration_ns)
          << " rejected=" << r.rejected_moves
          << " failed=" << r.failed_requests << " ";
      serialize(out, r.measurement);
      out << "\n";
    }
    // The static oracle strips the fault plan, so the faulted config must
    // measure the healthy budgeted placement.
    out << kvstore::to_string(store) << " oracle ";
    serialize(out,
              DynamicTierer(faulted, predictive).run_static_oracle(trace));
    out << "\n";
  }
  return out.str();
}

/// The paper's CSV artifact per store: a cold session's report().csv,
/// pinned by byte count and digest, plus the bytes MnemoReport::write_csv
/// puts in a file — both must be the same rendering of the same curve.
std::string report_csv_snapshot(const workload::Trace& trace,
                                std::size_t threads) {
  std::ostringstream out;
  for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
    SessionConfig sc;
    sc.mnemo.store = store;
    sc.mnemo.threads = threads;
    Session session(trace, sc);
    const std::string csv = session.report().csv;
    util::StableHasher h;
    h.str(csv);
    out << kvstore::to_string(store) << " bytes=" << csv.size()
        << " digest=" << h.hex() << "\n";

    const std::string path = ::testing::TempDir() + "golden_report_" +
                             std::string(kvstore::to_string(store)) + ".csv";
    session.to_report().write_csv(path);
    std::ifstream file(path, std::ios::binary);
    std::stringstream written;
    written << file.rdbuf();
    EXPECT_EQ(written.str(), csv) << kvstore::to_string(store);
    std::remove(path.c_str());
  }
  return out.str();
}

/// The six stage keys of a session per store: the names every user's
/// artifact cache files are stored under (DESIGN.md §9).
std::string cache_keys_snapshot(const workload::Trace& trace,
                                std::size_t threads) {
  std::ostringstream out;
  for (const kvstore::StoreKind store : kvstore::kAllStoreKinds) {
    SessionConfig sc;
    sc.mnemo.store = store;
    sc.mnemo.threads = threads;
    const Session session(trace, sc);
    const std::string name(kvstore::to_string(store));
    out << name << " trace " << session.trace_key() << "\n"
        << name << " characterize " << session.characterize_key() << "\n"
        << name << " measure " << session.measure_key() << "\n"
        << name << " estimate " << session.estimate_key() << "\n"
        << name << " advise " << session.advise_key() << "\n"
        << name << " report " << session.report_key() << "\n";
  }
  return out.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(MNEMO_FIXTURE_DIR) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream file(fixture_path(name));
  std::stringstream ss;
  ss << file.rdbuf();
  return ss.str();
}

/// Pins `snapshot` against (or, in write mode, regenerates) the fixture.
void pin(const std::string& name, const std::string& snapshot) {
  ASSERT_FALSE(snapshot.empty());
  if (std::getenv("MNEMO_WRITE_GOLDEN") != nullptr) {
    std::ofstream file(fixture_path(name));
    file << snapshot;
    ASSERT_TRUE(file.good()) << "cannot write " << fixture_path(name);
    GTEST_SKIP() << "regenerated " << fixture_path(name);
  }
  const std::string golden = read_fixture(name);
  ASSERT_FALSE(golden.empty())
      << "missing fixture " << fixture_path(name)
      << " — generate with MNEMO_WRITE_GOLDEN=1";
  EXPECT_EQ(golden, snapshot) << name
                              << ": simulated results diverged from the "
                                 "golden";
}

/// Computes a campaign snapshot at every thread count, requires all of
/// them to agree, then pins the result to the fixture.
void check_golden(const std::string& name,
                  const std::function<std::string(std::size_t)>& snapshot) {
  const std::string serial = snapshot(1);
  for (const std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    EXPECT_EQ(serial, snapshot(threads))
        << name << ": result depends on the executor (threads " << threads
        << ")";
  }
  pin(name, serial);
}

TEST(GoldenReplay, SweepByteIdenticalAcrossThreadCountsAndRefactors) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_sweep.txt", [&](std::size_t threads) {
    return sweep_snapshot(trace, threads);
  });
}

TEST(GoldenReplay, DegradedCampaignByteIdenticalWithLedger) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_degraded.txt", [&](std::size_t threads) {
    return degraded_snapshot(trace, threads);
  });
}

TEST(GoldenReplay, DegradedCampaignsOnEveryStoreAndFaultClass) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_degraded_plans.txt", [&](std::size_t threads) {
    return degraded_plans_snapshot(trace, threads);
  });
}

TEST(GoldenReplay, ReportCsvByteIdenticalOnEveryStore) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_report_csv.txt", [&](std::size_t threads) {
    return report_csv_snapshot(trace, threads);
  });
}

// Cache keys are an on-disk format: a changed key orphans every cached
// artifact, so they are pinned like the replay results.
TEST(GoldenReplay, CacheKeysStableAcrossThreadCountsAndBuilds) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_cache_keys.txt", [&](std::size_t threads) {
    return cache_keys_snapshot(trace, threads);
  });
}

TEST(GoldenReplay, DynamicTiererRunByteIdentical) {
  const workload::Trace trace = golden_trace();
  pin("golden_tiering.txt", tiering_snapshot(trace));
}

}  // namespace
}  // namespace mnemo::core
