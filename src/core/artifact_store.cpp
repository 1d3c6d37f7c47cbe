#include "core/artifact_store.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <utility>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace mnemo::core {

namespace {

constexpr std::string_view kMagic = "MNA1";
constexpr std::string_view kJournalName = "journal.mnj";
constexpr std::string_view kQuarantineDir = "quarantine";

/// The schema and version a typed load expects of a frame.
struct FrameId {
  std::string_view schema;
  std::uint32_t version = 0;
};

/// The one artifact-frame parser: magic, schema, version, payload,
/// checksum, and nothing after the checksum. `expect` (when non-null) must
/// match the frame's schema and version, checked as they are read, so a
/// foreign or stale file says so before any damage further in; null takes
/// any stage's frame (fsck). A valid frame yields reason kNone and its
/// payload in *payload; anything else yields the miss and what is wrong.
LoadMiss parse_frame(std::string_view raw, const FrameId* expect,
                     std::string* payload) {
  if (raw.size() < kMagic.size() || raw.substr(0, kMagic.size()) != kMagic) {
    return {CacheMiss::kBadMagic, "not an artifact file"};
  }
  try {
    util::BinReader r(raw.substr(kMagic.size()));
    const std::string schema = r.str();
    if (expect != nullptr && schema != expect->schema) {
      return {CacheMiss::kSchemaMismatch, "holds '" + schema + "'"};
    }
    const std::uint32_t version = r.u32();
    if (expect != nullptr && version != expect->version) {
      return {CacheMiss::kVersionMismatch,
              "v" + std::to_string(version) + " != v" +
                  std::to_string(expect->version)};
    }
    std::string body = r.str();
    const std::uint64_t lo = r.u64();
    const std::uint64_t hi = r.u64();
    if (!r.exhausted()) {
      return {CacheMiss::kCorrupt,
              std::to_string(r.remaining()) + " bytes past the frame"};
    }
    util::StableHasher h;
    h.bytes(body.data(), body.size());
    if (h.lo() != lo || h.hi() != hi) {
      return {CacheMiss::kChecksumMismatch, "payload digest differs"};
    }
    *payload = std::move(body);
    return {};
  } catch (const util::ArtifactError& e) {
    return {CacheMiss::kTruncated, e.what()};
  }
}

/// fsck's name for what the schema-agnostic parse_frame found.
FsckProblem fsck_problem(CacheMiss miss) {
  switch (miss) {
    case CacheMiss::kBadMagic:
      return FsckProblem::kBadMagic;
    case CacheMiss::kTruncated:
      return FsckProblem::kTruncatedFrame;
    case CacheMiss::kCorrupt:  // the only kCorrupt a frame has: bytes after it
      return FsckProblem::kTrailingBytes;
    default:
      return FsckProblem::kChecksumMismatch;
  }
}

/// Writer pid of a `<name>.tmp.<pid>.<n>` temp file; 0 when the name
/// does not parse (foreign file — left alone, never reaped).
long temp_writer_pid(const std::string& name) {
  const std::size_t mark = name.rfind(".tmp.");
  if (mark == std::string::npos) return 0;
  const char* begin = name.c_str() + mark + 5;
  char* end = nullptr;
  const long pid = std::strtol(begin, &end, 10);
  if (end == begin || pid <= 0 || end == nullptr || *end != '.') return 0;
  return pid;
}

/// True when no process with this pid exists (ESRCH). A pid we cannot
/// probe (EPERM) is conservatively treated as alive.
bool pid_is_dead(long pid) {
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

}  // namespace

std::string_view to_string(CacheMiss miss) {
  switch (miss) {
    case CacheMiss::kNone:
      return "none";
    case CacheMiss::kDisabled:
      return "cache disabled";
    case CacheMiss::kAbsent:
      return "absent";
    case CacheMiss::kBadMagic:
      return "bad magic";
    case CacheMiss::kSchemaMismatch:
      return "schema mismatch";
    case CacheMiss::kVersionMismatch:
      return "version mismatch";
    case CacheMiss::kTruncated:
      return "truncated";
    case CacheMiss::kChecksumMismatch:
      return "checksum mismatch";
    case CacheMiss::kCorrupt:
      return "corrupt payload";
  }
  return "?";
}

std::string_view to_string(FsckProblem problem) {
  switch (problem) {
    case FsckProblem::kBadMagic:
      return "bad magic";
    case FsckProblem::kTruncatedFrame:
      return "truncated frame";
    case FsckProblem::kChecksumMismatch:
      return "checksum mismatch";
    case FsckProblem::kTrailingBytes:
      return "trailing bytes";
    case FsckProblem::kOrphanTemp:
      return "orphaned temp";
    case FsckProblem::kJournalMissing:
      return "journaled, missing";
  }
  return "?";
}

std::string FsckReport::render() const {
  std::ostringstream out;
  out << "fsck: " << scanned << " artifacts scanned, " << healthy
      << " healthy, " << quarantined << " quarantined, " << reaped_temps
      << " temp files reaped\n";
  if (findings.empty()) return out.str();
  util::TablePrinter table({"file", "problem", "action", "detail"});
  for (const FsckFinding& f : findings) {
    const char* action = "reported";
    if (f.repaired) {
      action = f.problem == FsckProblem::kOrphanTemp ? "reaped"
                                                     : "quarantined";
    }
    table.add_row({f.file, std::string(to_string(f.problem)), action,
                   f.detail});
  }
  out << table.render();
  return out.str();
}

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string ArtifactStore::path_for(std::string_view stage,
                                    std::string_view key) const {
  std::string path = dir_;
  if (!path.empty() && path.back() != '/') path += '/';
  path += stage;
  path += '-';
  path += key;
  path += ".mna";
  return path;
}

std::optional<std::string> ArtifactStore::load_payload(
    std::string_view stage, std::string_view schema, std::uint32_t version,
    std::string_view key, LoadMiss* miss) const {
  const auto cold = [miss](CacheMiss reason) {
    if (miss != nullptr) *miss = {reason, ""};
    return std::nullopt;
  };
  if (!enabled()) return cold(CacheMiss::kDisabled);
  std::string raw;
  if (!util::read_file(path_for(stage, key), &raw)) {
    return cold(CacheMiss::kAbsent);
  }
  const FrameId expect{schema, version};
  std::string payload;
  LoadMiss verdict = parse_frame(raw, &expect, &payload);
  if (verdict.reason != CacheMiss::kNone) {
    reject(stage, key, std::move(verdict), miss);
    return std::nullopt;
  }
  if (miss != nullptr) *miss = {};
  return payload;
}

util::Status ArtifactStore::save_payload(std::string_view stage,
                                         std::string_view schema,
                                         std::uint32_t version,
                                         std::string_view key,
                                         std::string_view payload) const {
  if (!enabled()) return {};

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    util::Error err;
    err.code = util::ErrorCode::kInvalidArgument;
    err.message = "cannot create cache dir " + dir_ + ": " + ec.message();
    MNEMO_LOG_WARN("artifact store: %s", err.message.c_str());
    return err;
  }

  util::StableHasher h;
  h.bytes(payload.data(), payload.size());

  util::BinWriter w;
  w.str(schema);
  w.u32(version);
  w.str(payload);
  w.u64(h.lo());
  w.u64(h.hi());

  std::string file(kMagic);
  file += w.buffer();

  // Concurrent sessions may race to fill the same key. The store is
  // content-addressed, so every writer of a key must be carrying the same
  // bytes: if a valid artifact is already in place we can skip the write
  // outright (last-writer-wins degenerates to first-writer-wins), and a
  // valid incumbent whose payload differs is a broken key function — an
  // invariant violation, not a recoverable condition. An *invalid*
  // incumbent (truncated, foreign, corrupted) is simply overwritten.
  const std::string path = path_for(stage, key);
  std::string existing;
  if (util::read_file(path, &existing)) {
    if (existing == file) return {};
    const FrameId expect{schema, version};
    std::string existing_payload;
    if (parse_frame(existing, &expect, &existing_payload).reason ==
        CacheMiss::kNone) {
      // Framing is deterministic, so a valid incumbent with different
      // bytes can only mean a different payload under the same key.
      MNEMO_ASSERT(existing_payload == payload &&
                   "two writers of one content-addressed key disagreed");
      return {};
    }
  }
  util::Status status = util::write_file_atomic(path, file);
  if (!status.ok()) {
    MNEMO_LOG_WARN("artifact store: %s", status.error().message.c_str());
    return status;
  }

  // Advisory write journal: one O_APPEND record per committed artifact,
  // written *after* the rename so a journaled file was durable at commit
  // time. fsck reads it to report journaled-but-missing artifacts; it
  // never condemns unjournaled files (pre-journal caches are legitimate),
  // so a lost or torn journal line costs a report, never an answer.
  util::StableHasher fh;
  fh.bytes(file.data(), file.size());
  std::string base(stage);
  base += '-';
  base += key;
  base += ".mna";
  std::ostringstream rec;
  rec << "commit " << base << ' ' << file.size() << ' ' << fh.lo() << ' '
      << fh.hi() << '\n';
  std::string journal = dir_;
  if (!journal.empty() && journal.back() != '/') journal += '/';
  journal += kJournalName;
  (void)util::append_file(journal, rec.str());  // best-effort, advisory
  return status;
}

FsckReport ArtifactStore::fsck(bool repair) const {
  FsckReport report;
  if (!enabled()) return report;
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root(dir_);
  if (!fs::is_directory(root, ec)) return report;

  // Deterministic scan order: findings sort by filename no matter how the
  // directory iterator enumerates.
  std::vector<std::string> artifacts;
  std::vector<std::string> temps;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    std::error_code file_ec;
    if (!entry.is_regular_file(file_ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name == kJournalName) continue;
    if (name.find(".tmp.") != std::string::npos) {
      temps.push_back(name);
    } else if (name.size() > 4 && name.ends_with(".mna")) {
      artifacts.push_back(name);
    }
  }
  std::sort(artifacts.begin(), artifacts.end());
  std::sort(temps.begin(), temps.end());

  const fs::path qdir = root / kQuarantineDir;
  const auto quarantine = [&](const std::string& name, FsckProblem problem,
                              std::string detail) {
    FsckFinding finding;
    finding.file = name;
    finding.problem = problem;
    finding.detail = std::move(detail);
    if (repair) {
      std::error_code qec;
      fs::create_directories(qdir, qec);
      fs::rename(root / name, qdir / name, qec);
      if (!qec) {
        finding.repaired = true;
        ++report.quarantined;
        (void)util::append_file(
            (qdir / "ledger.log").string(),
            name + " " + std::string(to_string(problem)) + " " +
                finding.detail + "\n");
      }
    }
    report.findings.push_back(std::move(finding));
  };

  for (const std::string& name : artifacts) {
    ++report.scanned;
    std::string raw;
    if (!util::read_file((root / name).string(), &raw)) continue;
    std::string payload;
    LoadMiss verdict = parse_frame(raw, nullptr, &payload);
    if (verdict.reason == CacheMiss::kNone) {
      ++report.healthy;
    } else {
      quarantine(name, fsck_problem(verdict.reason),
                 std::move(verdict.detail));
    }
  }

  // Crash litter: a temp file whose writer pid no longer exists can never
  // be renamed into place — reap it. A live pid's temp is an in-flight
  // write and is left strictly alone.
  for (const std::string& name : temps) {
    const long pid = temp_writer_pid(name);
    if (pid == 0 || !pid_is_dead(pid)) continue;
    FsckFinding finding;
    finding.file = name;
    finding.problem = FsckProblem::kOrphanTemp;
    finding.detail = "writer pid " + std::to_string(pid) + " is dead";
    if (repair) {
      std::error_code rec_;
      if (fs::remove(root / name, rec_)) {
        finding.repaired = true;
        ++report.reaped_temps;
      }
    }
    report.findings.push_back(std::move(finding));
  }

  // Journal reconciliation (advisory). A committed file that has since
  // vanished — without this pass having quarantined it — is worth a
  // report: something outside the store deleted cache state.
  std::string journal_raw;
  std::string journal_path = (root / kJournalName).string();
  if (util::read_file(journal_path, &journal_raw)) {
    std::set<std::string> present(artifacts.begin(), artifacts.end());
    // A file quarantined (this pass or a previous one) is accounted for,
    // not "missing": its absence has already been reported once.
    std::error_code qec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(qdir, qec)) {
      std::error_code file_ec;
      if (!entry.is_regular_file(file_ec)) continue;
      present.insert(entry.path().filename().string());
    }
    std::set<std::string> reported;
    std::istringstream lines(journal_raw);
    std::string line;
    while (std::getline(lines, line)) {
      // A torn final record (crash mid-append) has no terminating
      // newline; getline yields it last with lines.eof() — skip it.
      if (lines.eof() && !journal_raw.empty() &&
          journal_raw.back() != '\n') {
        break;
      }
      std::istringstream fields(line);
      std::string verb;
      std::string file;
      if (!(fields >> verb >> file) || verb != "commit") continue;
      if (present.contains(file) || !reported.insert(file).second) continue;
      FsckFinding finding;
      finding.file = file;
      finding.problem = FsckProblem::kJournalMissing;
      finding.detail = "journaled commit, file absent";
      report.findings.push_back(std::move(finding));
    }
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const FsckFinding& a, const FsckFinding& b) {
              return a.file < b.file;
            });
  return report;
}

void ArtifactStore::reject(std::string_view stage, std::string_view key,
                           LoadMiss miss, LoadMiss* out) const {
  MNEMO_LOG_WARN("artifact store: rejecting %s (%s: %s) -> cache miss",
                 path_for(stage, key).c_str(),
                 std::string(to_string(miss.reason)).c_str(),
                 miss.detail.c_str());
  if (out != nullptr) *out = std::move(miss);
}

}  // namespace mnemo::core
