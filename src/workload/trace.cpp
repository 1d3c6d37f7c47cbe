#include "workload/trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace mnemo::workload {

namespace {

/// stoull with file:line provenance — every malformed numeric field in a
/// trace CSV must name the exact line it sits on.
std::uint64_t parse_u64_field(const std::string& path, std::size_t line,
                              const std::string& value, const char* what) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw util::ParseError(
        path, line, std::string(what) + ": not an integer: " + value);
  }
}

}  // namespace

std::string_view to_string(OpType op) {
  switch (op) {
    case OpType::kRead:
      return "read";
    case OpType::kUpdate:
      return "update";
    case OpType::kInsert:
      return "insert";
  }
  return "?";
}

Trace::Trace(std::string name, std::uint64_t key_count,
             std::vector<Request> requests,
             std::vector<std::uint64_t> key_sizes,
             std::uint64_t initial_key_count)
    : name_(std::move(name)),
      key_count_(key_count),
      initial_key_count_(
          initial_key_count == ~0ULL ? key_count : initial_key_count),
      requests_(std::move(requests)),
      key_sizes_(std::move(key_sizes)) {
  MNEMO_EXPECTS(key_sizes_.size() == key_count_);
  MNEMO_EXPECTS(initial_key_count_ <= key_count_);
  // Inserted keys appear exactly once as kInsert, in ID order, before any
  // other access to them.
  std::uint64_t next_insert = initial_key_count_;
  for (const Request& r : requests_) {
    MNEMO_EXPECTS(r.key < key_count_);
    if (r.op == OpType::kInsert) {
      MNEMO_EXPECTS(r.key == next_insert);
      ++next_insert;
    } else {
      MNEMO_EXPECTS(r.key < next_insert || r.key < initial_key_count_);
    }
  }
  MNEMO_EXPECTS(next_insert == key_count_);
}

Trace Trace::generate(const WorkloadSpec& spec) {
  spec.check();
  util::Rng rng(spec.seed);
  const auto sizes_model = spec.make_record_sizes();

  // Inserts extend the key space beyond the preloaded keys; the exact
  // count is drawn up front so the final keyspace (and the distribution's
  // support) is known.
  std::uint64_t inserts = 0;
  std::vector<bool> is_insert(spec.request_count, false);
  if (spec.insert_fraction > 0.0) {
    for (std::uint64_t i = 0; i < spec.request_count; ++i) {
      if (rng.next_double() < spec.insert_fraction) {
        is_insert[i] = true;
        ++inserts;
      }
    }
  }
  const std::uint64_t total_keys = spec.key_count + inserts;
  auto dist = make_distribution(spec.distribution, total_keys,
                                spec.dist_params);

  std::vector<std::uint64_t> sizes(total_keys);
  for (std::uint64_t k = 0; k < total_keys; ++k) {
    sizes[k] = sizes_model->size_of(k);
  }

  std::vector<Request> reqs;
  reqs.reserve(spec.request_count);
  std::uint64_t current_keys = spec.key_count;
  for (std::uint64_t i = 0; i < spec.request_count; ++i) {
    if (is_insert[i]) {
      reqs.push_back(
          Request{static_cast<std::uint32_t>(current_keys), OpType::kInsert});
      ++current_keys;
      continue;
    }
    // Draw over the final keyspace, folded onto the keys existing now —
    // YCSB's approach to sampling a growing dataset. For kLatest the
    // fold keeps recency intact (high draws stay near current_keys - 1).
    std::uint64_t key = dist->next(rng);
    if (key >= current_keys) {
      key = spec.distribution == DistributionKind::kLatest
                ? current_keys - 1 - (total_keys - 1 - key) % current_keys
                : key % current_keys;
    }
    const OpType op = rng.next_double() < spec.read_fraction
                          ? OpType::kRead
                          : OpType::kUpdate;
    reqs.push_back(Request{static_cast<std::uint32_t>(key), op});
  }
  return Trace(spec.name, total_keys, std::move(reqs), std::move(sizes),
               spec.key_count);
}

std::uint64_t Trace::size_of(std::uint64_t key) const {
  MNEMO_EXPECTS(key < key_count_);
  return key_sizes_[key];
}

std::uint64_t Trace::dataset_bytes() const {
  std::uint64_t sum = 0;
  for (const auto s : key_sizes_) sum += s;
  return sum;
}

std::vector<std::uint64_t> Trace::access_counts() const {
  std::vector<std::uint64_t> counts(key_count_, 0);
  for (const Request& r : requests_) ++counts[r.key];
  return counts;
}

std::vector<std::uint64_t> Trace::read_counts() const {
  std::vector<std::uint64_t> counts(key_count_, 0);
  for (const Request& r : requests_) {
    if (r.op == OpType::kRead) ++counts[r.key];
  }
  return counts;
}

std::vector<std::uint64_t> Trace::write_counts() const {
  std::vector<std::uint64_t> counts(key_count_, 0);
  for (const Request& r : requests_) {
    // Updates and inserts both write the record.
    if (r.op != OpType::kRead) ++counts[r.key];
  }
  return counts;
}

std::uint64_t Trace::total_reads() const {
  std::uint64_t n = 0;
  for (const Request& r : requests_) n += r.op == OpType::kRead ? 1 : 0;
  return n;
}

std::uint64_t Trace::total_writes() const {
  return requests_.size() - total_reads();
}

double Trace::hot_share(double fraction) const {
  MNEMO_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  auto counts = access_counts();
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const auto take = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(counts.size())));
  std::uint64_t hot = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (i < take) hot += counts[i];
  }
  MNEMO_EXPECTS(total > 0);
  return static_cast<double>(hot) / static_cast<double>(total);
}

void Trace::save_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Trace::save_csv: cannot open " + path);
  util::csv::Writer w(out);
  w.row({"trace", name_});
  w.row({"key_count", std::to_string(key_count_),
         std::to_string(initial_key_count_)});
  w.field("sizes");
  for (const auto s : key_sizes_) w.field(static_cast<std::uint64_t>(s));
  w.end_row();
  for (const Request& r : requests_) {
    w.field(static_cast<std::uint64_t>(r.key)).field(to_string(r.op));
    w.end_row();
  }
}

Trace Trace::load_csv(const std::string& path) {
  const auto rows = util::csv::read_file_numbered(path);
  if (rows.size() < 3 || rows[0].fields.size() != 2 ||
      rows[0].fields[0] != "trace") {
    throw util::ParseError(path, rows.empty() ? 1 : rows[0].line,
                           "malformed trace header (want `trace,<name>`)");
  }
  const std::string name = rows[0].fields[1];
  if (rows[1].fields.size() < 2 || rows[1].fields[0] != "key_count") {
    throw util::ParseError(path, rows[1].line,
                           "malformed key_count row "
                           "(want `key_count,<n>[,<initial>]`)");
  }
  const std::uint64_t key_count =
      parse_u64_field(path, rows[1].line, rows[1].fields[1], "key_count");
  const std::uint64_t initial_keys =
      rows[1].fields.size() > 2
          ? parse_u64_field(path, rows[1].line, rows[1].fields[2],
                            "initial key count")
          : key_count;
  if (initial_keys > key_count) {
    throw util::ParseError(path, rows[1].line,
                           "initial key count exceeds key_count");
  }
  std::vector<std::uint64_t> sizes;
  sizes.reserve(key_count);
  for (std::size_t i = 1; i < rows[2].fields.size(); ++i) {
    sizes.push_back(
        parse_u64_field(path, rows[2].line, rows[2].fields[i], "size"));
  }
  if (sizes.size() != key_count) {
    throw util::ParseError(path, rows[2].line,
                           "size row has " + std::to_string(sizes.size()) +
                               " entries, want " + std::to_string(key_count));
  }
  // A trace with nothing to replay has no measurement to offer any command.
  if (rows.size() == 3) {
    throw util::ParseError(path, rows.back().line, "trace has no requests");
  }
  // Validate what the Trace constructor would otherwise abort on: these
  // are user-input errors, not programming errors, so they must surface
  // as diagnostics with the offending line.
  std::vector<Request> reqs;
  reqs.reserve(rows.size() - 3);
  std::uint64_t next_insert = initial_keys;
  for (std::size_t i = 3; i < rows.size(); ++i) {
    const std::size_t line = rows[i].line;
    const std::vector<std::string>& f = rows[i].fields;
    if (f.size() != 2) {
      throw util::ParseError(path, line,
                             "malformed request row (want `<key>,<op>`)");
    }
    const std::uint64_t key = parse_u64_field(path, line, f[0], "key");
    if (key >= key_count) {
      throw util::ParseError(path, line,
                             "key " + std::to_string(key) +
                                 " out of range (key_count " +
                                 std::to_string(key_count) + ")");
    }
    OpType op;
    if (f[1] == "read") {
      op = OpType::kRead;
    } else if (f[1] == "update") {
      op = OpType::kUpdate;
    } else if (f[1] == "insert") {
      op = OpType::kInsert;
    } else {
      throw util::ParseError(
          path, line, "unknown op '" + f[1] + "' (want read|update|insert)");
    }
    if (op == OpType::kInsert) {
      if (key != next_insert) {
        throw util::ParseError(path, line,
                               "insert out of order: key " +
                                   std::to_string(key) + ", expected " +
                                   std::to_string(next_insert));
      }
      ++next_insert;
    } else if (key >= next_insert) {
      throw util::ParseError(path, line,
                             "key " + std::to_string(key) +
                                 " accessed before its insert");
    }
    reqs.push_back(Request{static_cast<std::uint32_t>(key), op});
  }
  if (next_insert != key_count) {
    throw util::ParseError(path, rows.back().line,
                           "trace ends with " + std::to_string(next_insert) +
                               " of " + std::to_string(key_count) +
                               " keys inserted");
  }
  return Trace(name, key_count, std::move(reqs), std::move(sizes),
               initial_keys);
}

}  // namespace mnemo::workload
