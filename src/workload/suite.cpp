#include "workload/suite.hpp"

#include <stdexcept>
#include <string>

namespace mnemo::workload {

namespace {

WorkloadSpec base(std::uint64_t seed) {
  WorkloadSpec s;
  s.key_count = 10'000;
  s.request_count = 100'000;
  s.seed = seed;
  return s;
}

}  // namespace

std::vector<WorkloadSpec> paper_suite(std::uint64_t seed) {
  std::vector<WorkloadSpec> suite;

  WorkloadSpec trending = base(seed ^ 0x01);
  trending.name = "trending";
  trending.use_case = "Read Facebook short Trending News.";
  trending.distribution = DistributionKind::kHotspot;
  trending.read_fraction = 1.0;
  trending.record_size = RecordSizeType::kThumbnail;
  suite.push_back(trending);

  WorkloadSpec newsfeed = base(seed ^ 0x02);
  newsfeed.name = "news_feed";
  newsfeed.use_case = "Read Facebook News Feed.";
  newsfeed.distribution = DistributionKind::kLatest;
  // The feed refreshes throughout the run: the recency pivot sweeps the
  // whole key space once (10,000 keys over 100,000 requests), which is
  // why News Feed "really depends on the latest accessed data" and offers
  // almost no static cost-reduction opportunity (paper Fig 9).
  newsfeed.dist_params.latest_drift = 0.1;
  newsfeed.read_fraction = 1.0;
  newsfeed.record_size = RecordSizeType::kThumbnail;
  suite.push_back(newsfeed);

  WorkloadSpec timeline = base(seed ^ 0x03);
  timeline.name = "timeline";
  timeline.use_case = "Read Facebook user's Timeline.";
  timeline.distribution = DistributionKind::kScrambledZipfian;
  timeline.read_fraction = 1.0;
  timeline.record_size = RecordSizeType::kThumbnail;
  suite.push_back(timeline);

  WorkloadSpec edit = base(seed ^ 0x04);
  edit.name = "edit_thumbnail";
  edit.use_case = "Edit Profile Photo - Add filter/frame.";
  edit.distribution = DistributionKind::kScrambledZipfian;
  edit.read_fraction = 0.5;
  edit.record_size = RecordSizeType::kThumbnail;
  suite.push_back(edit);

  WorkloadSpec preview = base(seed ^ 0x05);
  preview.name = "trending_preview";
  preview.use_case =
      "Scroll through Facebook Trending News. Preview the news photo "
      "thumbnail, caption and news summary.";
  preview.distribution = DistributionKind::kHotspot;
  preview.read_fraction = 1.0;
  preview.record_size = RecordSizeType::kPreviewMix;
  suite.push_back(preview);

  return suite;
}

WorkloadSpec paper_workload(std::string_view name, std::uint64_t seed) {
  std::string valid;
  for (auto& spec : paper_suite(seed)) {
    if (spec.name == name) return spec;
    valid += (valid.empty() ? "" : ", ") + spec.name;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (valid: " + valid + ")");
}

std::vector<WorkloadSpec> record_size_sweep(std::uint64_t seed) {
  std::vector<WorkloadSpec> out;
  for (const RecordSizeType type :
       {RecordSizeType::kThumbnail, RecordSizeType::kTextPost,
        RecordSizeType::kPhotoCaption}) {
    WorkloadSpec s = paper_workload("timeline", seed);
    s.record_size = type;
    s.name = std::string("timeline_") + std::string(to_string(type));
    out.push_back(s);
  }
  return out;
}

std::vector<WorkloadSpec> distribution_sweep(std::uint64_t seed) {
  return {paper_workload("trending", seed), paper_workload("news_feed", seed),
          paper_workload("timeline", seed)};
}

std::vector<WorkloadSpec> ratio_sweep(std::uint64_t seed) {
  return {paper_workload("timeline", seed),
          paper_workload("edit_thumbnail", seed)};
}

WorkloadSpec ycsb_d(std::uint64_t seed) {
  WorkloadSpec s = base(seed ^ 0x0d);
  s.name = "ycsb_d";
  s.use_case = "YCSB workload D: read latest status updates.";
  s.distribution = DistributionKind::kLatest;
  s.read_fraction = 1.0;     // non-insert requests are all reads
  s.insert_fraction = 0.05;  // 95:5 read:insert
  s.record_size = RecordSizeType::kTextPost;
  return s;
}

}  // namespace mnemo::workload
