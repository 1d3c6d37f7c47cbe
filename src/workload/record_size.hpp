#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mnemo::workload {

/// Deterministic per-key record-size assignment. A key's size never changes
/// across runs (it is derived from the key ID and the model seed), which is
/// what lets Mnemo reason about capacity at key granularity.
class RecordSizeModel {
 public:
  virtual ~RecordSizeModel() = default;

  /// Size in bytes of the value stored under `key`.
  [[nodiscard]] virtual std::uint64_t size_of(std::uint64_t key) const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// All records the same size.
class FixedSizeModel final : public RecordSizeModel {
 public:
  explicit FixedSizeModel(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t size_of(std::uint64_t key) const override;
  [[nodiscard]] std::string_view name() const override { return "fixed"; }

 private:
  std::uint64_t bytes_;
};

/// Log-normal spread around a median — the shape of real content-size
/// distributions (sizes cluster near a typical value with a heavy right
/// tail). Clamped to [min_bytes, max_bytes].
class LognormalSizeModel final : public RecordSizeModel {
 public:
  LognormalSizeModel(std::uint64_t median_bytes, double sigma,
                     std::uint64_t min_bytes, std::uint64_t max_bytes,
                     std::uint64_t seed = 0xface);
  [[nodiscard]] std::uint64_t size_of(std::uint64_t key) const override;
  [[nodiscard]] std::string_view name() const override { return "lognormal"; }

  [[nodiscard]] std::uint64_t median_bytes() const { return median_; }

 private:
  std::uint64_t median_;
  double sigma_;
  std::uint64_t min_;
  std::uint64_t max_;
  std::uint64_t seed_;
};

/// A weighted mixture of size models: key k is deterministically assigned
/// to one component. Implements the Trending Preview workload's
/// thumbnail + text post + photo caption blend.
class MixtureSizeModel final : public RecordSizeModel {
 public:
  struct Component {
    double weight;
    std::shared_ptr<const RecordSizeModel> model;
  };

  MixtureSizeModel(std::string name, std::vector<Component> components,
                   std::uint64_t seed = 0x5eed);
  [[nodiscard]] std::uint64_t size_of(std::uint64_t key) const override;
  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  std::string name_;
  std::vector<Component> components_;
  std::uint64_t seed_;
};

/// The paper's record-size types (Table III / Fig 4), inferred from public
/// "social media cheat sheets": thumbnails ≈ 100 KB, text posts ≈ 10 KB,
/// photo captions ≈ 1 KB.
enum class RecordSizeType {
  kThumbnail,     ///< ≈ 100 KB news/profile photo thumbnail
  kTextPost,      ///< ≈ 10 KB text post / article summary
  kPhotoCaption,  ///< ≈ 1 KB short caption
  kPreviewMix,    ///< Trending Preview: thumbnail + caption + summary blend
};

std::string_view to_string(RecordSizeType type);
std::uint64_t nominal_bytes(RecordSizeType type);

std::unique_ptr<RecordSizeModel> make_size_model(RecordSizeType type,
                                                 std::uint64_t seed = 0xface);

/// One row of the "social media cheat sheet" behind Fig 4.
struct SocialMediaEntry {
  std::string platform;
  std::string content;
  std::uint64_t typical_bytes;
};

/// The dataset plotted in Fig 4 (CDF of common data sizes across
/// platforms). Values follow the 2018 cheat sheets the paper cites:
/// character limits for text content (1 byte/char) and typical encoded
/// sizes for image thumbnails.
const std::vector<SocialMediaEntry>& social_media_size_table();

}  // namespace mnemo::workload
