#include "workload/record_size.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mnemo::workload {

using util::kKiB;

// ------------------------------------------------------------------ fixed

FixedSizeModel::FixedSizeModel(std::uint64_t bytes) : bytes_(bytes) {
  MNEMO_EXPECTS(bytes > 0);
}

std::uint64_t FixedSizeModel::size_of(std::uint64_t /*key*/) const {
  return bytes_;
}

// -------------------------------------------------------------- lognormal

LognormalSizeModel::LognormalSizeModel(std::uint64_t median_bytes,
                                       double sigma, std::uint64_t min_bytes,
                                       std::uint64_t max_bytes,
                                       std::uint64_t seed)
    : median_(median_bytes),
      sigma_(sigma),
      min_(min_bytes),
      max_(max_bytes),
      seed_(seed) {
  MNEMO_EXPECTS(median_bytes > 0);
  MNEMO_EXPECTS(sigma >= 0.0);
  MNEMO_EXPECTS(min_bytes > 0 && min_bytes <= median_bytes);
  MNEMO_EXPECTS(max_bytes >= median_bytes);
}

std::uint64_t LognormalSizeModel::size_of(std::uint64_t key) const {
  // A tiny private generator keyed by (seed, key) makes the mapping a pure
  // function of the key ID — exactly reproducible and order-independent.
  util::Rng rng(util::mix64(seed_ ^ util::mix64(key + 1)));
  const double z = rng.gaussian();
  const double v = static_cast<double>(median_) * std::exp(sigma_ * z);
  const auto bytes = static_cast<std::uint64_t>(std::llround(v));
  return std::clamp(bytes, min_, max_);
}

// ---------------------------------------------------------------- mixture

MixtureSizeModel::MixtureSizeModel(std::string name,
                                   std::vector<Component> components,
                                   std::uint64_t seed)
    : name_(std::move(name)), components_(std::move(components)), seed_(seed) {
  MNEMO_EXPECTS(!components_.empty());
  double total = 0.0;
  for (const auto& c : components_) {
    MNEMO_EXPECTS(c.weight > 0.0);
    MNEMO_EXPECTS(c.model != nullptr);
    total += c.weight;
  }
  for (auto& c : components_) c.weight /= total;
}

std::uint64_t MixtureSizeModel::size_of(std::uint64_t key) const {
  const double u =
      static_cast<double>(util::mix64(seed_ ^ util::mix64(key + 17)) >> 11) *
      0x1.0p-53;
  double acc = 0.0;
  for (const auto& c : components_) {
    acc += c.weight;
    if (u < acc) return c.model->size_of(key);
  }
  return components_.back().model->size_of(key);
}

// ------------------------------------------------------------ paper types

std::string_view to_string(RecordSizeType type) {
  switch (type) {
    case RecordSizeType::kThumbnail:
      return "thumbnail";
    case RecordSizeType::kTextPost:
      return "text_post";
    case RecordSizeType::kPhotoCaption:
      return "photo_caption";
    case RecordSizeType::kPreviewMix:
      return "preview_mix";
  }
  return "?";
}

std::uint64_t nominal_bytes(RecordSizeType type) {
  switch (type) {
    case RecordSizeType::kThumbnail:
      return 100 * kKiB;
    case RecordSizeType::kTextPost:
      return 10 * kKiB;
    case RecordSizeType::kPhotoCaption:
      return 1 * kKiB;
    case RecordSizeType::kPreviewMix:
      // weighted blend of the three components below
      return (100 * kKiB + 10 * kKiB + 1 * kKiB) / 3;
  }
  return 0;
}

std::unique_ptr<RecordSizeModel> make_size_model(RecordSizeType type,
                                                 std::uint64_t seed) {
  // Mild spread (sigma 0.15): platform thumbnails/posts are near-constant
  // size but not byte-identical.
  switch (type) {
    case RecordSizeType::kThumbnail:
      return std::make_unique<LognormalSizeModel>(100 * kKiB, 0.15, 60 * kKiB,
                                                  180 * kKiB, seed);
    case RecordSizeType::kTextPost:
      return std::make_unique<LognormalSizeModel>(10 * kKiB, 0.15, 6 * kKiB,
                                                  18 * kKiB, seed);
    case RecordSizeType::kPhotoCaption:
      return std::make_unique<LognormalSizeModel>(1 * kKiB, 0.15, 512,
                                                  2 * kKiB, seed);
    case RecordSizeType::kPreviewMix: {
      std::vector<MixtureSizeModel::Component> parts;
      parts.push_back({1.0, std::shared_ptr<const RecordSizeModel>(
                                make_size_model(RecordSizeType::kThumbnail,
                                                seed ^ 0x1))});
      parts.push_back({1.0, std::shared_ptr<const RecordSizeModel>(
                                make_size_model(RecordSizeType::kTextPost,
                                                seed ^ 0x2))});
      parts.push_back({1.0, std::shared_ptr<const RecordSizeModel>(
                                make_size_model(RecordSizeType::kPhotoCaption,
                                                seed ^ 0x3))});
      return std::make_unique<MixtureSizeModel>("preview_mix",
                                                std::move(parts), seed);
    }
  }
  MNEMO_ASSERT(false);
  return nullptr;
}

const std::vector<SocialMediaEntry>& social_media_size_table() {
  // 2018-era "social media cheat sheet" values: text limits at 1 byte per
  // character, images as typical JPEG-encoded sizes at the recommended
  // pixel dimensions.
  static const std::vector<SocialMediaEntry> kTable = {
      {"Facebook", "status text (typical)", 150},
      {"Facebook", "status text (limit)", 63206},
      {"Facebook", "link caption", 500},
      {"Facebook", "news thumbnail (1200x630)", 95 * kKiB},
      {"Facebook", "profile photo (180x180)", 12 * kKiB},
      {"Twitter", "tweet", 280},
      {"Twitter", "card summary text", 200},
      {"Twitter", "in-stream photo (440x220)", 60 * kKiB},
      {"Instagram", "caption (limit)", 2200},
      {"Instagram", "thumbnail (161x161)", 9 * kKiB},
      {"Instagram", "feed photo (1080x1080)", 150 * kKiB},
      {"LinkedIn", "post text (limit)", 1300},
      {"LinkedIn", "article body (typical)", 8 * kKiB},
      {"LinkedIn", "link thumbnail (1200x627)", 90 * kKiB},
      {"Pinterest", "pin description", 500},
      {"Pinterest", "pin image (600x900)", 120 * kKiB},
      {"YouTube", "video description", 5000},
      {"YouTube", "thumbnail (1280x720)", 110 * kKiB},
  };
  return kTable;
}

}  // namespace mnemo::workload
