#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/status.hpp"
#include "workload/suite.hpp"

namespace mnemo::workload {
namespace {

WorkloadSpec small_spec(double read_fraction = 0.7) {
  WorkloadSpec s;
  s.name = "test";
  s.distribution = DistributionKind::kZipfian;
  s.read_fraction = read_fraction;
  s.record_size = RecordSizeType::kPhotoCaption;
  s.key_count = 100;
  s.request_count = 10'000;
  s.seed = 11;
  return s;
}

TEST(Trace, GenerateHonorsScale) {
  const Trace t = Trace::generate(small_spec());
  EXPECT_EQ(t.key_count(), 100u);
  EXPECT_EQ(t.requests().size(), 10'000u);
  EXPECT_EQ(t.key_sizes().size(), 100u);
  EXPECT_GT(t.dataset_bytes(), 0u);
}

TEST(Trace, ReadFractionApproximatelyHonored) {
  const Trace t = Trace::generate(small_spec(0.7));
  const double frac = static_cast<double>(t.total_reads()) /
                      static_cast<double>(t.requests().size());
  EXPECT_NEAR(frac, 0.7, 0.02);
  EXPECT_EQ(t.total_reads() + t.total_writes(), t.requests().size());
}

TEST(Trace, ReadonlySpecHasNoWrites) {
  const Trace t = Trace::generate(small_spec(1.0));
  EXPECT_EQ(t.total_writes(), 0u);
}

TEST(Trace, CountsDecomposeByOpType) {
  const Trace t = Trace::generate(small_spec(0.5));
  const auto all = t.access_counts();
  const auto reads = t.read_counts();
  const auto writes = t.write_counts();
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < t.key_count(); ++k) {
    EXPECT_EQ(all[k], reads[k] + writes[k]);
    total += all[k];
  }
  EXPECT_EQ(total, t.requests().size());
}

TEST(Trace, DeterministicForSameSeed) {
  const Trace a = Trace::generate(small_spec());
  const Trace b = Trace::generate(small_spec());
  ASSERT_EQ(a.requests().size(), b.requests().size());
  for (std::size_t i = 0; i < a.requests().size(); ++i) {
    ASSERT_EQ(a.requests()[i].key, b.requests()[i].key);
    ASSERT_EQ(a.requests()[i].op, b.requests()[i].op);
  }
  EXPECT_EQ(a.key_sizes(), b.key_sizes());
}

TEST(Trace, DifferentSeedsDiffer) {
  WorkloadSpec other = small_spec();
  other.seed = 12;
  const Trace a = Trace::generate(small_spec());
  const Trace b = Trace::generate(other);
  int same = 0;
  for (std::size_t i = 0; i < a.requests().size(); ++i) {
    if (a.requests()[i].key == b.requests()[i].key) ++same;
  }
  EXPECT_LT(same, static_cast<int>(a.requests().size()));
}

TEST(Trace, HotShareReflectsSkew) {
  const Trace zipf = Trace::generate(small_spec());
  WorkloadSpec uniform_spec = small_spec();
  uniform_spec.distribution = DistributionKind::kUniform;
  const Trace uniform = Trace::generate(uniform_spec);
  EXPECT_GT(zipf.hot_share(0.1), uniform.hot_share(0.1));
  EXPECT_NEAR(uniform.hot_share(1.0), 1.0, 1e-12);
}

TEST(Trace, SizeOfMatchesKeySizes) {
  const Trace t = Trace::generate(small_spec());
  for (std::uint64_t k = 0; k < t.key_count(); ++k) {
    EXPECT_EQ(t.size_of(k), t.key_sizes()[k]);
  }
}

TEST(Trace, CsvRoundTrip) {
  const Trace t = Trace::generate(small_spec());
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.csv";
  t.save_csv(path);
  const Trace loaded = Trace::load_csv(path);
  EXPECT_EQ(loaded.name(), t.name());
  EXPECT_EQ(loaded.key_count(), t.key_count());
  EXPECT_EQ(loaded.key_sizes(), t.key_sizes());
  ASSERT_EQ(loaded.requests().size(), t.requests().size());
  for (std::size_t i = 0; i < t.requests().size(); ++i) {
    ASSERT_EQ(loaded.requests()[i].key, t.requests()[i].key);
    ASSERT_EQ(loaded.requests()[i].op, t.requests()[i].op);
  }
  std::filesystem::remove(path);
}

TEST(Trace, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.csv";
  {
    std::ofstream out(path);
    out << "not,a,trace\n1,2\n3,4\n";
  }
  EXPECT_THROW(Trace::load_csv(path), util::ParseError);
  std::filesystem::remove(path);
}

TEST(Trace, LoadErrorsNameFileAndLine) {
  const std::string path = ::testing::TempDir() + "/badrow.csv";
  const struct {
    const char* csv;
    std::size_t line;
    const char* detail;
  } cases[] = {
      // Valid header + sizes for 2 keys, then a request row with a bad op.
      {"trace,t\nkey_count,2\nsizes,10,10\n0,read\n1,destroy\n", 5,
       "destroy"},
      // Valid header + sizes, then nothing to replay.
      {"trace,t\nkey_count,2\nsizes,10,10\n", 3, "trace has no requests"},
  };
  for (const auto& c : cases) {
    {
      std::ofstream out(path);
      out << c.csv;
    }
    try {
      Trace::load_csv(path);
      ADD_FAILURE() << "expected util::ParseError for " << c.detail;
    } catch (const util::ParseError& e) {
      EXPECT_EQ(e.file(), path);
      EXPECT_EQ(e.line(), c.line);
      EXPECT_NE(std::string(e.what()).find(path + ":" +
                                           std::to_string(c.line) + ":"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(c.detail), std::string::npos);
    }
  }
  std::filesystem::remove(path);
}

TEST(OpType, Names) {
  EXPECT_EQ(to_string(OpType::kRead), "read");
  EXPECT_EQ(to_string(OpType::kUpdate), "update");
}

}  // namespace
}  // namespace mnemo::workload
