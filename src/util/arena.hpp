#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

namespace mnemo::util {

/// Monotonic grow-once/reset-per-cell allocator for campaign cells
/// (DESIGN.md §12): a std::pmr::memory_resource that bump-allocates out of
/// a chain of geometrically growing chunks. Deallocation is a no-op —
/// everything a cell allocated is released at once by reset(), which
/// rewinds to the first chunk while *keeping* every chunk, so after the
/// first cell warmed the arena up, subsequent cells on the same worker
/// allocate without ever touching malloc.
///
/// Single-threaded by design: each scheduler worker owns one Arena
/// (thread_local in the campaign runner) and campaign cells are
/// shared-nothing, so no synchronization is needed or provided.
///
/// Requests larger than the next chunk would be get a dedicated chunk of
/// exactly the needed size, spliced into the chain like any other — they
/// are reused across reset() too.
class Arena final : public std::pmr::memory_resource {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : first_chunk_bytes_(first_chunk_bytes == 0 ? kDefaultChunkBytes
                                                  : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rewind to the start of the first chunk, keeping every chunk's memory.
  /// Invalidates all outstanding allocations — callers must not hold any
  /// container backed by this arena across a reset().
  void reset() noexcept {
    chunk_idx_ = 0;
    offset_ = 0;
    bytes_allocated_ = 0;
    allocation_count_ = 0;
  }

  /// Bytes handed out since the last reset (includes alignment padding).
  [[nodiscard]] std::size_t bytes_allocated() const noexcept {
    return bytes_allocated_;
  }
  /// Total chunk capacity held (survives reset — the grow-once footprint).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    return bytes_reserved_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }
  [[nodiscard]] std::size_t allocation_count() const noexcept {
    return allocation_count_;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* do_allocate(std::size_t bytes, std::size_t alignment) override;
  void do_deallocate(void* /*p*/, std::size_t /*bytes*/,
                     std::size_t /*alignment*/) override {
    // Monotonic: individual frees are no-ops; reset() releases everything.
  }
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  std::size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_idx_ = 0;  ///< chunk currently bumping
  std::size_t offset_ = 0;     ///< bump cursor within chunks_[chunk_idx_]
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t allocation_count_ = 0;
};

}  // namespace mnemo::util
