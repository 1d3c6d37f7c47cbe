#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "util/csv.hpp"

namespace mnemo::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsPrintsHelpAndFails) {
  const CliResult r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const CliResult r = run_cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("profile"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliResult r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, WorkloadsListsTableIII) {
  const CliResult r = run_cli({"workloads"});
  EXPECT_EQ(r.code, 0);
  for (const char* name : {"trending", "news_feed", "timeline",
                           "edit_thumbnail", "trending_preview"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, TestbedShowsTableI) {
  const CliResult r = run_cli({"testbed"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("FastMem"), std::string::npos);
  EXPECT_NE(r.out.find("65.7"), std::string::npos);
  EXPECT_NE(r.out.find("238.1"), std::string::npos);
}

TEST(Cli, GenerateProfileDownsampleRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/cli_trace.csv";
  const std::string advice_path = dir + "/cli_advice.csv";
  const std::string down_path = dir + "/cli_down.csv";

  // generate
  CliResult r = run_cli({"generate", "--workload", "trending", "--keys",
                         "300", "--requests", "3000", "--out", trace_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(trace_path));

  // profile the generated trace
  r = run_cli({"profile", "--trace", trace_path, "--repeats", "1", "--out",
               advice_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sweet spot"), std::string::npos);
  const auto rows = util::csv::read_file(advice_path);
  EXPECT_EQ(rows.size(), 301u);  // header + one row per key

  // downsample it
  r = run_cli({"downsample", "--trace", trace_path, "--keep", "0.5",
               "--out", down_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("kept"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(down_path));

  std::filesystem::remove(trace_path);
  std::filesystem::remove(advice_path);
  std::filesystem::remove(down_path);
}

TEST(Cli, ProfileTieredAndModelsWork) {
  const CliResult r = run_cli({"profile", "--workload", "timeline",
                               "--keys", "300", "--requests", "3000",
                               "--tiered", "--model", "uniform",
                               "--repeats", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("tiered ordering"), std::string::npos);
  EXPECT_NE(r.out.find("uniform_delta"), std::string::npos);
}

TEST(Cli, ProfileThreadsAndStatsReportTheCampaign) {
  const CliResult serial = run_cli({"profile", "--workload", "trending",
                                    "--keys", "200", "--requests", "2000",
                                    "--repeats", "1", "--threads", "1"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  const CliResult parallel = run_cli({"profile", "--workload", "trending",
                                      "--keys", "200", "--requests", "2000",
                                      "--repeats", "1", "--threads", "4",
                                      "--stats"});
  ASSERT_EQ(parallel.code, 0) << parallel.err;
  // --stats appends the campaign accounting table...
  EXPECT_NE(parallel.out.find("campaign totals"), std::string::npos);
  EXPECT_NE(parallel.out.find("cells run"), std::string::npos);
  EXPECT_NE(parallel.out.find("speedup vs serial"), std::string::npos);
  // ...and the thread count never changes the advice: everything before
  // the stats table is byte-identical to the serial run's full output.
  const std::size_t cut = parallel.out.find("\n| campaign totals");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(serial.out, parallel.out.substr(0, cut));
}

// `mnemo run` replays {FastMem, SlowMem} x repeats: two placement groups
// whose followers can run at once, so --stats reports a real fan-out —
// computed from the plan, hence deterministic — at the CLI's default
// repeats 2 as well as at 3, while the report itself never depends on the
// thread count.
TEST(Cli, RunStatsReportTheGroupedFanOut) {
  for (const char* repeats : {"2", "3"}) {
    const std::vector<std::string> base = {
        "run",        "--workload", "trending",  "--keys", "200",
        "--requests", "2000",       "--repeats", repeats};
    std::vector<std::string> serial_args = base;
    serial_args.insert(serial_args.end(), {"--threads", "1"});
    std::vector<std::string> parallel_args = base;
    parallel_args.insert(parallel_args.end(), {"--threads", "4", "--stats"});

    const CliResult serial = run_cli(serial_args);
    ASSERT_EQ(serial.code, 0) << serial.err;
    core::reset_campaign_totals();  // --stats reports process-wide totals
    const CliResult parallel = run_cli(parallel_args);
    ASSERT_EQ(parallel.code, 0) << parallel.err;

    const std::size_t cut = parallel.out.find("\n| campaign totals");
    ASSERT_NE(cut, std::string::npos);
    EXPECT_EQ(serial.out, parallel.out.substr(0, cut)) << "repeats " << repeats;
    const std::size_t row = parallel.out.find("| threads", cut);
    ASSERT_NE(row, std::string::npos);
    const std::size_t value = parallel.out.find('|', row + 1);
    ASSERT_NE(value, std::string::npos);
    EXPECT_GE(std::stoul(parallel.out.substr(value + 1)), 2u)
        << "repeats " << repeats << parallel.out.substr(cut);
  }
}

TEST(Cli, ProfileRejectsBadStore) {
  const CliResult r = run_cli({"profile", "--store", "redis"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("vermilion"), std::string::npos);
}

TEST(Cli, BadNumbersAreNamedErrors) {
  // Malformed numbers and values outside the consultant's domain exit 1
  // naming the option — never an abort, never a silently different value.
  const std::vector<std::string> base = {
      "run", "--workload", "trending", "--keys", "100", "--requests", "1000"};
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--repeats", "0"},    {"--p", "0"},         {"--p", "1.5"},
      {"--slo", "-5"},       {"--slo", "1"},       {"--threads", "-1"},
      {"--threads", "4x"},   {"--seed", "-1"},     {"--p", "0.3abc"},
  };
  for (const auto& [flag, value] : bad) {
    std::vector<std::string> args = base;
    args.insert(args.end(), {flag, value});
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.code, 1) << flag << " " << value;
    EXPECT_NE(r.err.find("error: " + flag + ":"), std::string::npos)
        << flag << " " << value << ": " << r.err;
  }
  const CliResult keys = run_cli({"run", "--keys", "1e3"});
  EXPECT_EQ(keys.code, 1);
  EXPECT_NE(keys.err.find("error: --keys:"), std::string::npos) << keys.err;
  const CliResult serve = run_cli({"serve", "--threads", "-1"});
  EXPECT_EQ(serve.code, 1);
  EXPECT_NE(serve.err.find("error: --threads:"), std::string::npos)
      << serve.err;
  // A one-key hotspot has no cold key: a typed error, not an abort.
  const CliResult hotspot = run_cli({"run", "--workload", "trending",
                                     "--keys", "1", "--requests", "100"});
  EXPECT_EQ(hotspot.code, 1);
  EXPECT_NE(hotspot.err.find("hotspot"), std::string::npos) << hotspot.err;
}

TEST(Cli, ProfileIsAnAliasOfRun) {
  const std::vector<std::string> flags = {
      "--workload", "timeline", "--keys",   "200",
      "--requests", "2000",     "--repeats", "1"};
  std::vector<std::string> run_args = {"run"};
  run_args.insert(run_args.end(), flags.begin(), flags.end());
  std::vector<std::string> profile_args = {"profile"};
  profile_args.insert(profile_args.end(), flags.begin(), flags.end());
  const CliResult via_run = run_cli(run_args);
  const CliResult via_profile = run_cli(profile_args);
  ASSERT_EQ(via_run.code, 0) << via_run.err;
  ASSERT_EQ(via_profile.code, 0) << via_profile.err;
  EXPECT_EQ(via_profile.out, via_run.out);
}

TEST(Cli, BadOptionShowsUsage) {
  const CliResult r = run_cli({"profile", "--bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
  EXPECT_NE(r.err.find("--store"), std::string::npos) << "usage shown";
}

TEST(Cli, DownsampleValidatesKeep) {
  const std::string path = ::testing::TempDir() + "/cli_downsampled.csv";
  std::filesystem::remove(path);
  // Out of (0, 1], and a fraction that keeps none of 100 requests.
  for (const char* keep : {"1.5", "0.0001"}) {
    const CliResult r = run_cli({"downsample", "--workload", "trending",
                                 "--keys", "50", "--requests", "100",
                                 "--keep", keep, "--out", path});
    EXPECT_EQ(r.code, 2) << keep;
    EXPECT_NE(r.err.find("--keep"), std::string::npos) << keep;
    EXPECT_FALSE(std::filesystem::exists(path)) << keep;
  }
}

TEST(Cli, TailsPrintsMixtureEstimates) {
  const CliResult r = run_cli({"tails", "--workload", "trending", "--keys",
                               "300", "--requests", "3000", "--repeats",
                               "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("est p99"), std::string::npos);
}

TEST(Cli, SpecPrintsParsableTemplate) {
  const CliResult r = run_cli({"spec", "--workload", "news_feed"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("distribution = latest"), std::string::npos);
  EXPECT_NE(r.out.find("latest_drift = 0.1"), std::string::npos);
}

TEST(Cli, ProfileFromSpecFile) {
  const std::string dir = ::testing::TempDir();
  const std::string spec_path = dir + "/cli_spec.conf";
  {
    std::ofstream spec(spec_path);
    spec << "name = custom_hotspot\n"
            "distribution = hotspot\n"
            "record_size = photo_caption\n"
            "keys = 200\n"
            "requests = 2000\n";
  }
  const CliResult r =
      run_cli({"profile", "--spec", spec_path, "--repeats", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("custom_hotspot"), std::string::npos);
  std::filesystem::remove(spec_path);
}

TEST(Cli, CompareCoversAllStores) {
  const CliResult r = run_cli({"compare", "--workload", "trending",
                               "--keys", "200", "--requests", "2000",
                               "--repeats", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("vermilion"), std::string::npos);
  EXPECT_NE(r.out.find("cachet"), std::string::npos);
  EXPECT_NE(r.out.find("dynastore"), std::string::npos);
}

TEST(Cli, InspectCharacterizesTheWorkload) {
  const CliResult r = run_cli({"inspect", "--workload", "trending",
                               "--keys", "300", "--requests", "3000"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hot-20% share"), std::string::npos);
  EXPECT_NE(r.out.find("reuse distance p50"), std::string::npos);
  EXPECT_NE(r.out.find("predicted LLC hit rate"), std::string::npos);
}

TEST(Cli, MigrateComparesStrategies) {
  const CliResult r = run_cli({"migrate", "--workload", "news_feed",
                               "--keys", "200", "--requests", "4000",
                               "--epoch", "500", "--background"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("static oracle"), std::string::npos);
  EXPECT_NE(r.out.find("dynamic (predictive)"), std::string::npos);
}

TEST(Cli, MigrateValidatesBudget) {
  const CliResult r = run_cli({"migrate", "--budget", "2.0"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, PlanCoversTheSuite) {
  const CliResult r = run_cli({"plan", "--repeats", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trending"), std::string::npos);
  EXPECT_NE(r.out.find("news_feed"), std::string::npos);
}

TEST(Cli, ProfileWithFaultsDegradesAndPrintsTheLedger) {
  // 20 % poisoned SlowMem lines: the all-SlowMem baseline cannot produce a
  // fault-free measurement, so under the default degrade policy the
  // profile completes (exit 0) with the baselines quarantined and the
  // failure ledger printed.
  const CliResult r = run_cli({"profile", "--workload", "trending",
                               "--keys", "200", "--requests", "2000",
                               "--repeats", "1", "--threads", "2",
                               "--faults", "poison=0.2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("faults: poisoned lines"), std::string::npos);
  EXPECT_NE(r.out.find("policy degrade"), std::string::npos);
  EXPECT_NE(r.out.find("baselines quarantined"), std::string::npos);
  EXPECT_NE(r.out.find("partial results:"), std::string::npos);
  EXPECT_NE(r.out.find("fault_injected"), std::string::npos);
}

TEST(Cli, ProfileAbortPolicyExitsNonzeroNamingTheCell) {
  const CliResult r = run_cli({"profile", "--workload", "trending",
                               "--keys", "200", "--requests", "2000",
                               "--repeats", "1", "--threads", "2",
                               "--faults", "poison=0.2",
                               "--fail-policy", "abort"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("fault policy abort: cell #"), std::string::npos);
  EXPECT_NE(r.err.find("quarantined:"), std::string::npos);
  // The sweep itself still completed; abort only changes the exit status.
  EXPECT_NE(r.out.find("partial results:"), std::string::npos);
}

TEST(Cli, ProfileHarmlessPlanReportsNoQuarantine) {
  // An armed plan that draws no events: full advice comes out, with an
  // explicit all-clear instead of silence.
  const CliResult r = run_cli({"profile", "--workload", "trending",
                               "--keys", "200", "--requests", "2000",
                               "--repeats", "1",
                               "--faults", "transient=1e-9"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sweet spot"), std::string::npos);
  EXPECT_NE(r.out.find("no campaign cells quarantined"), std::string::npos);
}

TEST(Cli, PlanWithFaultsCompletesTheSweepDegraded) {
  const CliResult r = run_cli({"plan", "--repeats", "1",
                               "--faults", "poison=0.2"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Every suite workload still gets its row — quarantined, not missing.
  EXPECT_NE(r.out.find("trending"), std::string::npos);
  EXPECT_NE(r.out.find("news_feed"), std::string::npos);
  EXPECT_NE(r.out.find("quarantined"), std::string::npos);
  EXPECT_NE(r.out.find("partial results:"), std::string::npos);
}

TEST(Cli, PlanAbortPolicyNamesWorkloadAndCell) {
  const CliResult r = run_cli({"plan", "--repeats", "1",
                               "--faults", "poison=0.2",
                               "--fail-policy", "abort"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("fault policy abort: workload"), std::string::npos);
  EXPECT_NE(r.err.find("cell #"), std::string::npos);
}

// Cachet keeps each 1 MiB record in a 2 MiB huge-class chunk, so 2048 of
// them fill a paper-testbed node exactly and the last cannot be loaded.
// Writes that trace (every key read once) to `path`.
void write_overflow_trace(const std::string& path) {
  constexpr int kKeys = 2048;
  std::ofstream out(path);
  out << "trace,overflow\nkey_count," << kKeys << "\nsizes";
  for (int k = 0; k < kKeys; ++k) out << ",1048576";
  out << "\n";
  for (int k = 0; k < kKeys; ++k) out << k << ",read\n";
}

// No store evicts: the cell is quarantined with a typed capacity error
// instead of aborting the run or measuring a smaller dataset.
TEST(Cli, RunQuarantinesACellWhoseDatasetOverflowsItsNode) {
  const std::string path = ::testing::TempDir() + "/cli_overflow_trace.csv";
  write_overflow_trace(path);
  CliResult r = run_cli({"run", "--trace", path, "--store", "cachet",
                         "--repeats", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("capacity_exhausted"), std::string::npos) << r.out;

  r = run_cli({"run", "--trace", path, "--store", "cachet", "--repeats", "1",
               "--fail-policy", "abort"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("fault policy abort: cell #"), std::string::npos)
      << r.err;
  std::filesystem::remove(path);
}

// A budget this small leaves every record on SlowMem, which cannot hold
// them all: migrate names the typed capacity error and exits 1.
TEST(Cli, MigrateReportsADatasetThatOverflowsItsNode) {
  const std::string path =
      ::testing::TempDir() + "/cli_migrate_overflow_trace.csv";
  write_overflow_trace(path);
  const CliResult r = run_cli({"migrate", "--trace", path, "--store",
                               "cachet", "--budget", "0.0001"});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_EQ(r.err.rfind("error: ", 0), 0u) << r.err;
  EXPECT_NE(r.err.find("capacity_exhausted"), std::string::npos) << r.err;
  std::filesystem::remove(path);
}

TEST(Cli, BadFaultSpecFails) {
  const CliResult r = run_cli({"profile", "--workload", "trending",
                               "--keys", "100", "--requests", "1000",
                               "--faults", "bogus=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown key"), std::string::npos);
}

TEST(Cli, MalformedSpecFileExitsTwoWithFileAndLine) {
  const std::string path = ::testing::TempDir() + "/cli_bad_spec.conf";
  {
    std::ofstream spec(path);
    spec << "name = broken\nread_fraction = 1.5\n";
  }
  const CliResult r = run_cli({"profile", "--spec", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("parse error: "), std::string::npos);
  EXPECT_NE(r.err.find(path + ":2:"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Cli, MalformedTraceFileExitsTwoWithFileAndLine) {
  const std::string path = ::testing::TempDir() + "/cli_bad_trace.csv";
  {
    std::ofstream out(path);
    out << "trace,t\nkey_count,2\nsizes,10,10\n0,read\n1,destroy\n";
  }
  const CliResult r = run_cli({"profile", "--trace", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("parse error: "), std::string::npos);
  EXPECT_NE(r.err.find(path + ":5:"), std::string::npos);
  std::filesystem::remove(path);
}

// A trace with no requests is malformed input to every command that reads
// one: each of these once aborted on it instead of naming the file.
TEST(Cli, EmptyTraceFileExitsTwoOnEveryCommand) {
  const std::string path = ::testing::TempDir() + "/cli_empty_trace.csv";
  {
    std::ofstream out(path);
    out << "trace,empty\nkey_count,4\nsizes,64,64,64,64\n";
  }
  for (const char* command : {"run", "measure", "advise", "report",
                              "compare", "tails", "migrate", "inspect"}) {
    const CliResult r = run_cli({command, "--trace", path});
    EXPECT_EQ(r.code, 2) << command;
    EXPECT_NE(r.err.find("parse error: " + path + ":3:"), std::string::npos)
        << command << ": " << r.err;
    EXPECT_NE(r.err.find("trace has no requests"), std::string::npos)
        << command;
  }
  std::filesystem::remove(path);
}

TEST(Cli, UnknownWorkloadExitsOneOnEveryCommand) {
  const std::string out = ::testing::TempDir() + "/cli_unknown_workload.csv";
  for (const std::string command :
       {"run", "profile", "characterize", "measure", "advise", "report",
        "compare", "tails", "migrate", "inspect", "generate", "spec",
        "downsample"}) {
    std::vector<std::string> args = {command, "--workload", "nosuch"};
    if (command == "generate" || command == "downsample") {
      args.insert(args.end(), {"--out", out});
    }
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.code, 1) << command << ": " << r.err;
    EXPECT_NE(r.err.find("error: unknown workload 'nosuch' (valid: "),
              std::string::npos)
        << command << ": " << r.err;
    EXPECT_NE(r.err.find("trending_preview"), std::string::npos) << command;
    EXPECT_FALSE(std::filesystem::exists(out)) << command;
  }
}

// With both flags bad, a pipeline command parses its session config before
// it loads the workload, so the --store error is the one reported.
TEST(Cli, PipelineCommandsReportABadStoreBeforeABadWorkload) {
  for (const std::string command :
       {"run", "characterize", "measure", "advise", "report"}) {
    const CliResult r =
        run_cli({command, "--workload", "nosuch", "--store", "nosuch"});
    EXPECT_EQ(r.code, 1) << command;
    EXPECT_EQ(r.err,
              "error: --store: expected vermilion, cachet or dynastore, "
              "got nosuch\n")
        << command;
  }
}

}  // namespace
}  // namespace mnemo::cli
