#include "core/artifact_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/artifacts.hpp"

namespace mnemo::core {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kKey = "0123456789abcdef0123456789abcdef";

struct StoreFixture : ::testing::Test {
  fs::path dir;
  void SetUp() override {
    dir = fs::path(testing::TempDir()) /
          (std::string("mnemo_store_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  static ReportArtifact sample() {
    ReportArtifact a;
    a.text = "workload: trending\n";
    a.csv = "key_id,est_throughput_ops,cost_reduction_factor\n";
    return a;
  }

  /// The store's file for the sample artifact's (stage, key) address.
  std::string sample_path(const ArtifactStore& store) const {
    return store.path_for(ReportArtifact::kStage, kKey);
  }

  /// What loading the sample's key reports; the load must miss.
  static LoadMiss load_miss(const ArtifactStore& store) {
    LoadMiss miss;
    EXPECT_FALSE(store.load<ReportArtifact>(kKey, &miss).has_value());
    return miss;
  }
};

TEST_F(StoreFixture, SaveThenLoadRoundTrips) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  LoadMiss miss{CacheMiss::kAbsent, "left over"};
  const auto back = store.load<ReportArtifact>(kKey, &miss);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == sample());
  EXPECT_EQ(miss.reason, CacheMiss::kNone);  // a hit reports no miss
  EXPECT_TRUE(miss.detail.empty());
}

TEST_F(StoreFixture, DisabledStoreAlwaysMissesAndDropsSaves) {
  ArtifactStore store;  // no directory
  EXPECT_FALSE(store.enabled());
  EXPECT_TRUE(store.save(kKey, sample()).ok());  // dropped, not an error
  EXPECT_EQ(load_miss(store).reason, CacheMiss::kDisabled);
}

TEST_F(StoreFixture, AbsentKeyIsAColdMiss) {
  ArtifactStore store(dir.string());
  const LoadMiss miss = load_miss(store);
  EXPECT_EQ(miss.reason, CacheMiss::kAbsent);
  EXPECT_TRUE(miss.detail.empty());
}

TEST_F(StoreFixture, SaveLeavesNoTempFiles) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename() == "journal.mnj") continue;  // write journal
    EXPECT_EQ(e.path().extension().string(), ".mna") << e.path();
  }
}

TEST_F(StoreFixture, PathEncodesStageAndKey) {
  const ArtifactStore store(dir.string());
  const std::string path = sample_path(store);
  EXPECT_NE(path.find("report-"), std::string::npos);
  EXPECT_NE(path.find(kKey), std::string::npos);
  EXPECT_NE(path.find(".mna"), std::string::npos);
}

TEST_F(StoreFixture, TruncatedFileIsAMissNeverAnError) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  const std::string path = sample_path(store);
  const auto full = fs::file_size(path);
  fs::resize_file(path, full / 2);

  const LoadMiss miss = load_miss(store);
  EXPECT_EQ(miss.reason, CacheMiss::kTruncated);
  EXPECT_FALSE(miss.detail.empty());
}

TEST_F(StoreFixture, BadMagicIsAMiss) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  std::ofstream(sample_path(store), std::ios::binary) << "not an artifact";
  EXPECT_EQ(load_miss(store).reason, CacheMiss::kBadMagic);
}

TEST_F(StoreFixture, ForeignSchemaIsAMiss) {
  ArtifactStore store(dir.string());
  // Write a *measure* artifact into the file the *report* key addresses —
  // e.g. a renamed file or a colliding key from an old layout.
  util::BinWriter w;
  MeasureArtifact{}.serialize(w);
  ASSERT_TRUE(store
                  .save_payload(ReportArtifact::kStage,
                                MeasureArtifact::kSchema,
                                MeasureArtifact::kVersion, kKey, w.buffer())
                  .ok());
  const LoadMiss miss = load_miss(store);
  EXPECT_EQ(miss.reason, CacheMiss::kSchemaMismatch);
  EXPECT_NE(miss.detail.find("mnemo.artifact.measure"), std::string::npos);
}

TEST_F(StoreFixture, StaleVersionIsAMiss) {
  ArtifactStore store(dir.string());
  util::BinWriter w;
  sample().serialize(w);
  ASSERT_TRUE(store
                  .save_payload(ReportArtifact::kStage, ReportArtifact::kSchema,
                                ReportArtifact::kVersion + 1, kKey, w.buffer())
                  .ok());
  EXPECT_EQ(load_miss(store).reason, CacheMiss::kVersionMismatch);
}

TEST_F(StoreFixture, FlippedPayloadByteFailsTheChecksum) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  const std::string path = sample_path(store);
  std::string bytes;
  ASSERT_TRUE(util::read_file(path, &bytes));
  bytes[bytes.size() - 20] ^= 0x01;  // inside the payload region
  std::ofstream(path, std::ios::binary) << bytes;

  EXPECT_EQ(load_miss(store).reason, CacheMiss::kChecksumMismatch);
}

TEST_F(StoreFixture, BytesAfterTheFrameAreAMissThatFsckQuarantines) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  std::ofstream(sample_path(store), std::ios::binary | std::ios::app)
      << "junk";

  // A valid frame followed by junk is not the artifact that was saved.
  const LoadMiss miss = load_miss(store);
  EXPECT_EQ(miss.reason, CacheMiss::kCorrupt);
  EXPECT_EQ(miss.detail, "4 bytes past the frame");

  // fsck reads the frame with the same parser and condemns the same file.
  const FsckReport report = store.fsck();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].problem, FsckProblem::kTrailingBytes);
  EXPECT_EQ(report.findings[0].detail, "4 bytes past the frame");
  EXPECT_TRUE(report.findings[0].repaired);
  EXPECT_EQ(load_miss(store).reason, CacheMiss::kAbsent);
}

TEST_F(StoreFixture, ChecksummedButUndecodablePayloadIsCorrupt) {
  ArtifactStore store(dir.string());
  // A validly framed file whose payload is not a ReportArtifact stream.
  ASSERT_TRUE(store
                  .save_payload(ReportArtifact::kStage, ReportArtifact::kSchema,
                                ReportArtifact::kVersion, kKey, "\x01")
                  .ok());
  EXPECT_EQ(load_miss(store).reason, CacheMiss::kCorrupt);
}

TEST_F(StoreFixture, RejectedFileStaysOnDiskAndRecomputeOverwritesIt) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  fs::resize_file(sample_path(store), 3);
  EXPECT_FALSE(store.load<ReportArtifact>(kKey).has_value());
  // The recompute path writes the fresh artifact over the bad file.
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  EXPECT_TRUE(store.load<ReportArtifact>(kKey).has_value());
}

TEST_F(StoreFixture, IdenticalIncumbentSkipsTheRewrite) {
  ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  const auto mtime = fs::last_write_time(sample_path(store));
  // Second writer of the same content-addressed bytes: a no-op, not a
  // rewrite (no temp-file churn, no mtime bump).
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  EXPECT_EQ(fs::last_write_time(sample_path(store)), mtime);
}

TEST_F(StoreFixture, ConcurrentSameKeyWritersNeverProduceATornRead) {
  // Two sessions sharing one cache dir race to save the same key. Every
  // interleaving must end with one valid, loadable file — last writer
  // wins, and a concurrent reader sees either a valid frame or a miss,
  // never a torn artifact decoded as something else.
  ArtifactStore writer_a(dir.string());
  ArtifactStore writer_b(dir.string());
  ArtifactStore reader(dir.string());

  constexpr int kRounds = 200;
  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(writer_a.save(kKey, sample()).ok());
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(writer_b.save(kKey, sample()).ok());
    }
  });
  std::thread tr([&] {
    for (int i = 0; i < kRounds; ++i) {
      const auto got = reader.load<ReportArtifact>(kKey);
      if (got.has_value()) {
        EXPECT_TRUE(*got == sample());
      }
    }
  });
  ta.join();
  tb.join();
  tr.join();

  const auto got = reader.load<ReportArtifact>(kKey);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == sample());
  // Atomic rename cleanup: no temp files survive the race.
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename() == "journal.mnj") continue;  // write journal
    EXPECT_EQ(e.path().extension().string(), ".mna") << e.path();
  }
}

TEST_F(StoreFixture, ConcurrentLoadsOfOneStoreAllHit) {
  const ArtifactStore store(dir.string());
  ASSERT_TRUE(store.save(kKey, sample()).ok());
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(store.load<ReportArtifact>(kKey).has_value());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST_F(StoreFixture, MissReasonsHaveNames) {
  EXPECT_EQ(to_string(CacheMiss::kAbsent), "absent");
  EXPECT_EQ(to_string(CacheMiss::kTruncated), "truncated");
  EXPECT_EQ(to_string(CacheMiss::kChecksumMismatch), "checksum mismatch");
}

}  // namespace
}  // namespace mnemo::core
