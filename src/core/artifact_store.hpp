#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/artifact_io.hpp"
#include "util/status.hpp"

namespace mnemo::core {

/// Why a cache lookup came back empty. kDisabled and kAbsent are the
/// ordinary cold-cache cases; the remaining codes mean an on-disk file
/// existed but was rejected — always a miss with a logged reason, never an
/// error (satellite: a truncated or foreign artifact must not crash a run).
enum class CacheMiss : std::uint8_t {
  kNone = 0,          ///< not a miss (the lookup hit)
  kDisabled,          ///< the store has no directory (caching off)
  kAbsent,            ///< no file for this key — a cold cell
  kBadMagic,          ///< file does not start with the artifact magic
  kSchemaMismatch,    ///< file holds a different artifact type
  kVersionMismatch,   ///< schema matches but the version moved on
  kTruncated,         ///< payload shorter than its own framing claims
  kChecksumMismatch,  ///< payload bytes do not hash to the stored digest
  kCorrupt,           ///< payload framing intact but undecodable
};

std::string_view to_string(CacheMiss miss);

/// What fsck found wrong with one file in the cache directory.
enum class FsckProblem : std::uint8_t {
  kBadMagic,          ///< .mna file that is not an artifact (foreign/torn)
  kTruncatedFrame,    ///< frame shorter than its own framing claims
  kChecksumMismatch,  ///< payload bytes do not hash to the stored digest
  kTrailingBytes,     ///< valid frame followed by junk
  kOrphanTemp,        ///< temp file left by a dead writer (crash litter)
  kJournalMissing,    ///< journaled commit whose file is gone (advisory)
};

std::string_view to_string(FsckProblem problem);

/// One damaged (or suspicious) file found by fsck.
struct FsckFinding {
  std::string file;  ///< basename within the cache dir
  FsckProblem problem = FsckProblem::kBadMagic;
  std::string detail;
  /// True when fsck acted: damaged artifacts moved to quarantine/,
  /// orphaned temps deleted. Always false on a dry run, and for the
  /// advisory kJournalMissing (there is nothing to move).
  bool repaired = false;
};

/// Outcome of one recovery pass over a cache directory.
struct FsckReport {
  std::size_t scanned = 0;      ///< .mna artifacts examined
  std::size_t healthy = 0;      ///< artifacts with a valid frame
  std::size_t quarantined = 0;  ///< damaged artifacts moved aside
  std::size_t reaped_temps = 0; ///< dead writers' temp files deleted
  std::vector<FsckFinding> findings;

  /// True when the directory needed no repairs.
  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }

  /// Human-readable summary table (one row per finding).
  [[nodiscard]] std::string render() const;
};

/// True for the misses that turned away an existing file, as opposed to
/// a cold (kAbsent) or disabled cache.
[[nodiscard]] constexpr bool is_rejection(CacheMiss miss) noexcept {
  return miss != CacheMiss::kNone && miss != CacheMiss::kDisabled &&
         miss != CacheMiss::kAbsent;
}

/// What a load that came back empty tells its caller.
struct LoadMiss {
  CacheMiss reason = CacheMiss::kNone;
  std::string detail;  ///< what was wrong with a rejected file; else empty
};

/// Content-addressed on-disk artifact store. Each artifact lives in its
/// own file `<dir>/<stage>-<key>.mna` where `key` is the 128-bit stable
/// hash of everything the artifact's bytes depend on (see Session's
/// cache-key builders). File format:
///
///   "MNA1" | schema (len-prefixed) | version u32 | payload (len-prefixed)
///        | payload checksum (two u64 lanes, StableHasher)
///
/// Writes are crash-safe (temp file + rename), so a reader observes either
/// the previous artifact or the new one, never a torn file. Concurrent
/// writers of the same key — sessions racing to fill one cache dir —
/// resolve to last-writer-wins through writer-unique temp files; because
/// the store is content-addressed, both must be writing the same bytes,
/// which save_payload asserts whenever the incumbent file is a valid
/// artifact. Every load failure short of an I/O race is classified into a
/// CacheMiss and logged; load() never throws.
///
/// The store holds only its directory: it keeps no record of what it
/// loaded (each Session records its own cache decisions), so any number
/// of stores over one directory, on any threads, behave as one.
class ArtifactStore {
 public:
  /// A default-constructed (or empty-dir) store is disabled: every load
  /// misses with kDisabled and saves are dropped.
  ArtifactStore() = default;
  explicit ArtifactStore(std::string dir);

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// File this (stage, key) pair addresses — exposed for tests and
  /// --explain-cache output.
  [[nodiscard]] std::string path_for(std::string_view stage,
                                     std::string_view key) const;

  /// Load the raw payload for (stage, key), verifying magic, schema,
  /// version, checksum and that nothing follows the frame. nullopt on any
  /// miss; *miss (when non-null) says which kind and, for a rejected
  /// file, what was wrong with it.
  [[nodiscard]] std::optional<std::string> load_payload(
      std::string_view stage, std::string_view schema, std::uint32_t version,
      std::string_view key, LoadMiss* miss = nullptr) const;

  /// Persist a payload under (stage, key). No-op when disabled; an I/O
  /// failure is returned (and logged) but callers treat the cache as
  /// best-effort and continue.
  util::Status save_payload(std::string_view stage, std::string_view schema,
                            std::uint32_t version, std::string_view key,
                            std::string_view payload) const;

  /// Typed load: deserializes an artifact type A (kStage/kSchema/kVersion
  /// plus serialize/deserialize). A payload that passes the checksum but
  /// fails to decode is a kCorrupt miss, not an error.
  template <typename A>
  [[nodiscard]] std::optional<A> load(std::string_view key,
                                      LoadMiss* miss = nullptr) const {
    std::optional<std::string> payload =
        load_payload(A::kStage, A::kSchema, A::kVersion, key, miss);
    if (!payload) return std::nullopt;
    try {
      util::BinReader r(*payload);
      A artifact = A::deserialize(r);
      if (!r.exhausted()) {
        reject(A::kStage, key, {CacheMiss::kCorrupt, "trailing bytes"}, miss);
        return std::nullopt;
      }
      return artifact;
    } catch (const util::ArtifactError& e) {
      reject(A::kStage, key, {CacheMiss::kCorrupt, e.what()}, miss);
      return std::nullopt;
    }
  }

  /// Typed save (see save_payload for semantics).
  template <typename A>
  util::Status save(std::string_view key, const A& artifact) const {
    util::BinWriter w;
    artifact.serialize(w);
    return save_payload(A::kStage, A::kSchema, A::kVersion, key, w.buffer());
  }

  /// Crash-recovery pass over the cache directory (`mnemo fsck`, and the
  /// server's startup scan). Validates every `*.mna` file's frame — magic,
  /// framing, checksum, nothing past the checksum — with the parser load
  /// uses, but without caring which stage wrote it, and with `repair`:
  ///
  ///   - damaged artifacts move to `<dir>/quarantine/` (recorded in
  ///     `quarantine/ledger.log`), so later loads see kAbsent misses and
  ///     recompute — damage degrades to a cold cell, never a crash;
  ///   - temp files whose writer pid is dead are deleted (crash litter);
  ///     temps of live pids are left alone (in-flight writers).
  ///
  /// The write journal (`journal.mnj`, appended on every successful save)
  /// is advisory: a journaled file that has gone missing is *reported*
  /// (kJournalMissing) but nothing is condemned for being unjournaled —
  /// pre-journal caches and foreign writers are legitimate. A torn final
  /// journal record (crash mid-append) is tolerated silently.
  ///
  /// With repair=false (dry run) the same findings are returned and
  /// nothing on disk changes. No-op (empty report) when disabled.
  [[nodiscard]] FsckReport fsck(bool repair = true) const;

 private:
  /// A miss caused by a rejected on-disk file: logged, and handed to the
  /// caller through *out (when non-null).
  void reject(std::string_view stage, std::string_view key, LoadMiss miss,
              LoadMiss* out) const;

  std::string dir_;
};

}  // namespace mnemo::core
