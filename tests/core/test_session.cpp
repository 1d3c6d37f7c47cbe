#include "core/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/mnemo.hpp"
#include "util/artifact_io.hpp"
#include "workload/suite.hpp"

namespace mnemo::core {
namespace {

namespace fs = std::filesystem;

workload::Trace small_trace() {
  workload::WorkloadSpec spec = workload::paper_workload("trending");
  spec.key_count = 200;
  spec.request_count = 2'000;
  return workload::Trace::generate(spec);
}

MnemoConfig quick_config() {
  MnemoConfig cfg;
  cfg.repeats = 1;
  cfg.threads = 1;
  return cfg;
}

struct SessionFixture : ::testing::Test {
  fs::path dir;
  void SetUp() override {
    dir = fs::path(testing::TempDir()) /
          (std::string("mnemo_session_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  SessionConfig cached_config(std::size_t threads = 1) const {
    SessionConfig sc;
    sc.mnemo = quick_config();
    sc.mnemo.threads = threads;
    sc.cache_dir = dir.string();
    return sc;
  }

  /// Every file in the cache dir, by name, with its bytes.
  std::map<std::string, std::string> dir_contents() const {
    std::map<std::string, std::string> files;
    for (const auto& e : fs::directory_iterator(dir)) {
      EXPECT_TRUE(util::read_file(e.path().string(),
                                  &files[e.path().filename().string()]));
    }
    return files;
  }

  std::size_t files_for_stage(std::string_view stage) const {
    std::size_t n = 0;
    if (!fs::exists(dir)) return 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().filename().string().starts_with(std::string(stage) + "-")) {
        ++n;
      }
    }
    return n;
  }
};

TEST_F(SessionFixture, UncachedSessionMatchesTheMnemoFacade) {
  const workload::Trace trace = small_trace();
  const MnemoReport via_facade = Mnemo(quick_config()).profile(trace);

  SessionConfig sc;
  sc.mnemo = quick_config();
  Session session(trace, sc);
  const MnemoReport via_session = session.to_report();

  EXPECT_EQ(via_session.workload, via_facade.workload);
  EXPECT_TRUE(via_session.order == via_facade.order);
  EXPECT_TRUE(via_session.baselines == via_facade.baselines);
  EXPECT_TRUE(via_session.curve == via_facade.curve);
  EXPECT_TRUE(via_session.slo_choice == via_facade.slo_choice);
}

TEST_F(SessionFixture, WarmRerunExecutesZeroCampaignCells) {
  const workload::Trace trace = small_trace();

  Session cold(trace, cached_config());
  const ReportArtifact cold_report = cold.report();
  EXPECT_GT(cold.campaign_cells_run(), 0u);

  Session warm(trace, cached_config());
  const ReportArtifact warm_report = warm.report();

  // The incremental-rerun acceptance criterion: a fully warm session
  // never touches the emulator and reproduces the report byte for byte.
  EXPECT_EQ(warm.campaign_cells_run(), 0u);
  EXPECT_EQ(warm_report.text, cold_report.text);
  EXPECT_EQ(warm_report.csv, cold_report.csv);
  ASSERT_EQ(warm.stage_traces().size(), 1u);  // report alone satisfied it
  EXPECT_TRUE(warm.stage_traces()[0].from_cache);
}

TEST_F(SessionFixture, NewSloAgainstAWarmGridSkipsTheEmulator) {
  const workload::Trace trace = small_trace();
  Session cold(trace, cached_config());
  (void)cold.report();
  ASSERT_GT(cold.campaign_cells_run(), 0u);

  SessionConfig requery = cached_config();
  requery.mnemo.slo_slowdown = 0.3;  // different question, same grid
  Session warm(trace, requery);
  const AdviseArtifact& verdict = warm.advise();

  EXPECT_EQ(warm.campaign_cells_run(), 0u);
  EXPECT_EQ(verdict.slo_slowdown, 0.3);
  ASSERT_TRUE(verdict.result.feasible());
  // The grid was loaded, not recomputed; only advise was computed fresh.
  for (const StageTrace& t : warm.stage_traces()) {
    if (t.stage == "measure" || t.stage == "estimate") {
      EXPECT_TRUE(t.from_cache) << t.stage;
    }
  }
  EXPECT_EQ(files_for_stage("measure"), 1u);  // one grid serves both SLOs
  EXPECT_EQ(files_for_stage("advise"), 2u);
}

TEST_F(SessionFixture, CachedArtifactsAreBitIdenticalAcrossThreadCounts) {
  const workload::Trace trace = small_trace();

  // Ground truth: a cache-less serial session.
  SessionConfig plain;
  plain.mnemo = quick_config();
  Session reference(trace, plain);
  const MeasureArtifact ref_measure = reference.measure();
  const ReportArtifact ref_report = reference.report();

  // Fill the cache at one thread count, consume it at others. The measure
  // key deliberately excludes the thread count: results are bit-identical
  // at any count, so a grid measured at --threads 2 serves every run.
  Session writer(trace, cached_config(/*threads=*/2));
  (void)writer.report();
  EXPECT_GT(writer.campaign_cells_run(), 0u);
  EXPECT_TRUE(writer.measure() == ref_measure);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    Session consumer(trace, cached_config(threads));
    EXPECT_EQ(consumer.measure_key(), writer.measure_key());
    EXPECT_TRUE(consumer.measure() == ref_measure)
        << "threads=" << threads << ": cached grid differs from recomputed";
    EXPECT_EQ(consumer.report().text, ref_report.text) << threads;
    EXPECT_EQ(consumer.report().csv, ref_report.csv) << threads;
    EXPECT_EQ(consumer.campaign_cells_run(), 0u) << threads;
  }
}

TEST_F(SessionFixture, SetSloReusesTheGridInProcess) {
  Session session(small_trace(), cached_config());
  const ReportArtifact first = session.report();
  const std::size_t cells_after_first = session.campaign_cells_run();
  ASSERT_GT(cells_after_first, 0u);

  // Loosen the SLO until even the SlowMem-only split satisfies it: the
  // verdict moves to 0 FastMem keys without another campaign cell.
  const PerfBaselines& b = session.measure().baselines;
  ASSERT_GE(b.slow.throughput_ops, 0.5 * b.fast.throughput_ops);
  session.set_slo(0.5);
  const ReportArtifact second = session.report();
  EXPECT_EQ(session.campaign_cells_run(), cells_after_first);
  EXPECT_NE(second.text, first.text);
  ASSERT_TRUE(session.advise().result.feasible());
  EXPECT_EQ(session.advise().result.choice->point.fast_keys, 0u);
}

TEST_F(SessionFixture, NoCacheBypassesTheStoreEntirely) {
  const workload::Trace trace = small_trace();
  Session filler(trace, cached_config());
  (void)filler.report();
  const std::map<std::string, std::string> warm_dir = dir_contents();
  ASSERT_EQ(files_for_stage("report"), 1u);

  SessionConfig sc = cached_config();
  sc.use_cache = false;
  Session session(trace, sc);
  (void)session.report();
  // Bypassed means bypassed: a warm dir is neither read nor written.
  EXPECT_GT(session.campaign_cells_run(), 0u);
  ASSERT_FALSE(session.stage_traces().empty());
  for (const StageTrace& t : session.stage_traces()) {
    EXPECT_FALSE(t.from_cache) << t.stage;
    EXPECT_FALSE(t.saved) << t.stage;
    EXPECT_EQ(t.rejected.reason, CacheMiss::kNone) << t.stage;
  }
  EXPECT_EQ(dir_contents(), warm_dir);
  EXPECT_NE(session.explain_cache().find("(bypassed)"), std::string::npos);
}

TEST_F(SessionFixture, EachSessionExplainsOnlyTheRejectionsItMet) {
  const workload::Trace trace = small_trace();
  Session filler(trace, cached_config());
  const ReportArtifact expected = filler.report();

  // Two sessions over one cache dir: the first meets a damaged report
  // file and rewrites it, the second then reads the rewritten file.
  Session damaged(trace, cached_config());
  Session clean(trace, cached_config());
  fs::resize_file(dir / ("report-" + damaged.report_key() + ".mna"), 5);
  EXPECT_EQ(damaged.report().text, expected.text);  // rejected, recomputed
  EXPECT_EQ(clean.report().text, expected.text);    // the rewritten file

  const std::string met = damaged.explain_cache();
  EXPECT_NE(met.find("rejected artifacts (treated as misses):\n  report-" +
                     damaged.report_key() + ".mna: truncated ("),
            std::string::npos)
      << met;
  const std::string other = clean.explain_cache();
  EXPECT_EQ(other.find("rejected"), std::string::npos) << other;
  ASSERT_EQ(clean.stage_traces().size(), 1u);
  EXPECT_TRUE(clean.stage_traces()[0].from_cache);
}

TEST_F(SessionFixture, DegradedGridIsNeverCached) {
  workload::WorkloadSpec spec = workload::paper_workload("trending");
  spec.key_count = 250;
  spec.request_count = 2'500;
  const workload::Trace trace = workload::Trace::generate(spec);

  SessionConfig sc = cached_config();
  sc.mnemo.faults.poison_rate = 0.2;  // all-SlowMem baseline unmeasurable

  Session session(trace, sc);
  const MeasureArtifact& m = session.measure();
  ASSERT_TRUE(m.degraded);
  ASSERT_FALSE(m.failures.empty());

  // The poisoned grid must not be laundered into the cache as clean —
  // and downstream stages built on it must not persist either.
  (void)session.report();
  EXPECT_EQ(files_for_stage("measure"), 0u);
  EXPECT_EQ(files_for_stage("estimate"), 0u);
  EXPECT_EQ(files_for_stage("advise"), 0u);
  EXPECT_EQ(files_for_stage("report"), 0u);
  for (const StageTrace& t : session.stage_traces()) {
    if (t.stage != "characterize") {
      EXPECT_FALSE(t.saved) << t.stage;
    }
  }

  // Every later session re-measures; a degraded result is never warm.
  Session again(trace, sc);
  (void)again.measure();
  EXPECT_GT(again.campaign_cells_run(), 0u);
}

// Every measure runs the checked grid, so a trace with nothing to replay
// quarantines its cells with typed errors instead of aborting the process.
TEST_F(SessionFixture, EmptyTraceMeasuresDegradedWithTypedFailures) {
  const workload::Trace trace("empty", 4, {},
                              std::vector<std::uint64_t>(4, 64));
  Session session(trace, cached_config());
  const MeasureArtifact& m = session.measure();
  EXPECT_TRUE(m.degraded);
  ASSERT_EQ(m.failures.size(), 2u);  // all-FastMem and all-SlowMem, repeats 1
  for (const CellFailure& f : m.failures) {
    EXPECT_EQ(f.error.code, util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(f.attempts, 2);
  }
  EXPECT_EQ(session.campaign_cells_run(), 2u);
  EXPECT_EQ(files_for_stage("measure"), 0u);
  EXPECT_TRUE(session.to_report().degraded);
}

TEST_F(SessionFixture, FaultPlanParticipatesInTheMeasureKey) {
  const workload::Trace trace = small_trace();
  SessionConfig clean = cached_config();
  SessionConfig faulty = cached_config();
  faulty.mnemo.faults.transient_read_rate = 1e-9;

  Session a(trace, clean);
  Session b(trace, faulty);
  EXPECT_NE(a.measure_key(), b.measure_key());
  EXPECT_EQ(a.characterize_key(), b.characterize_key());
}

TEST_F(SessionFixture, PresentationKnobsStayOutOfTheMeasureKey) {
  const workload::Trace trace = small_trace();
  SessionConfig base = cached_config(/*threads=*/1);
  SessionConfig varied = cached_config(/*threads=*/8);
  varied.mnemo.slo_slowdown = 0.42;

  Session a(trace, base);
  Session b(trace, varied);
  EXPECT_EQ(a.measure_key(), b.measure_key());
  EXPECT_NE(a.advise_key(), b.advise_key());  // the SLO is an advise input
}

TEST_F(SessionFixture, CorruptCacheEntryRecomputesTheSameAnswer) {
  const workload::Trace trace = small_trace();
  Session cold(trace, cached_config());
  const ReportArtifact expected = cold.report();

  // Truncate every cached artifact to garbage.
  for (const auto& e : fs::directory_iterator(dir)) {
    fs::resize_file(e.path(), 5);
  }

  Session recover(trace, cached_config());
  EXPECT_EQ(recover.report().text, expected.text);
  EXPECT_EQ(recover.report().csv, expected.csv);
  EXPECT_GT(recover.campaign_cells_run(), 0u);  // grid honestly re-run
  EXPECT_NE(recover.explain_cache().find("rejected artifacts"),
            std::string::npos);

  // And the rewritten cache is whole again.
  Session warm(trace, cached_config());
  EXPECT_EQ(warm.report().text, expected.text);
  EXPECT_EQ(warm.campaign_cells_run(), 0u);
}

TEST_F(SessionFixture, ExplainCacheNamesEveryStage) {
  Session session(small_trace(), cached_config());
  (void)session.report();
  const std::string explain = session.explain_cache();
  EXPECT_NE(explain.find("cache: " + dir.string()), std::string::npos);
  for (const char* stage :
       {"characterize", "measure", "estimate", "advise", "report"}) {
    EXPECT_NE(explain.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(explain.find("computed, saved"), std::string::npos);
}

TEST_F(SessionFixture, ExternalOrderIsPartOfTheCharacterizeKey) {
  const workload::Trace trace = small_trace();
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = order.size() - 1 - i;
  }

  SessionConfig sc;
  sc.mnemo = quick_config();
  sc.external_order = order;
  Session ext(trace, sc);
  EXPECT_EQ(ext.characterize().ordering, OrderingPolicy::kExternal);
  EXPECT_TRUE(ext.characterize().order == order);

  SessionConfig sc2 = sc;
  std::swap(sc2.external_order->front(), sc2.external_order->back());
  Session ext2(trace, sc2);
  EXPECT_NE(ext.characterize_key(), ext2.characterize_key());

  SessionConfig plain;
  plain.mnemo = quick_config();
  Session touch(trace, plain);
  EXPECT_NE(touch.characterize_key(), ext.characterize_key());
}

}  // namespace
}  // namespace mnemo::core
