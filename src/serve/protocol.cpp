#include "serve/protocol.hpp"

#include <limits>

#include "core/estimate_engine.hpp"
#include "kvstore/service_profile.hpp"
#include "serve/json.hpp"

namespace mnemo::serve {

namespace {

/// Field-value bounds: large enough for every paper workload, small
/// enough that a hostile request cannot commission an unbounded campaign.
constexpr std::uint64_t kMaxKeys = 1'000'000;
constexpr std::uint64_t kMaxRequests = 10'000'000;
constexpr std::uint32_t kMaxRepeats = 16;
/// One day. Large enough for any real request; small enough that the
/// watchdog arithmetic can never overflow on hostile input.
constexpr std::uint64_t kMaxDeadlineMs = 86'400'000;

[[noreturn]] void fail_at(std::size_t pos, const std::string& message) {
  throw util::ParseError("request", pos, message);
}

const JsonValue& expect_kind(const JsonValue::Member& m,
                             JsonValue::Kind kind) {
  if (m.value.kind != kind) {
    fail_at(m.pos, "field '" + m.key + "' must be a " +
                       std::string(to_string(kind)) + ", got " +
                       std::string(to_string(m.value.kind)));
  }
  return m.value;
}

std::uint64_t read_u64(const JsonValue::Member& m, std::uint64_t max) {
  const JsonValue& v = expect_kind(m, JsonValue::Kind::kNumber);
  if (!v.integral || v.negative) {
    fail_at(m.pos, "field '" + m.key + "' must be a non-negative integer");
  }
  if (v.magnitude > max) {
    fail_at(m.pos, "field '" + m.key + "' exceeds " + std::to_string(max));
  }
  return v.magnitude;
}

/// A price factor or SLO slowdown: the cost model and the SLO advisor
/// are defined only strictly between 0 and 1.
double read_fraction(const JsonValue::Member& m) {
  const JsonValue& v = expect_kind(m, JsonValue::Kind::kNumber);
  if (!(v.number > 0.0)) {
    fail_at(m.pos, "field '" + m.key + "' must be > 0");
  }
  if (!(v.number < 1.0)) {
    fail_at(m.pos, "field '" + m.key + "' must be < 1");
  }
  return v.number;
}

}  // namespace

std::string_view to_string(RequestOp op) {
  switch (op) {
    case RequestOp::kCharacterize: return "characterize";
    case RequestOp::kMeasure: return "measure";
    case RequestOp::kAdvise: return "advise";
    case RequestOp::kReport: return "report";
    case RequestOp::kStats: return "stats";
  }
  return "?";
}

std::optional<RequestOp> parse_op(std::string_view name) {
  for (const RequestOp op :
       {RequestOp::kCharacterize, RequestOp::kMeasure, RequestOp::kAdvise,
        RequestOp::kReport, RequestOp::kStats}) {
    if (name == to_string(op)) return op;
  }
  return std::nullopt;
}

std::string Request::to_json_line() const {
  std::string out = "{";
  out += "\"id\":" + json_quote(id);
  out += ",\"op\":" + json_quote(to_string(op));
  out += ",\"workload\":" + json_quote(workload);
  out += ",\"keys\":" + std::to_string(keys);
  out += ",\"requests\":" + std::to_string(requests);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"store\":" + json_quote(store);
  out += std::string(",\"tiered\":") + (tiered ? "true" : "false");
  out += ",\"model\":" + json_quote(model);
  out += ",\"p\":" + json_number(p);
  out += ",\"slo\":" + json_number(slo);
  out += ",\"repeats\":" + std::to_string(repeats);
  out += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  out += std::string(",\"timing\":") + (timing ? "true" : "false");
  out += "}";
  return out;
}

Request Request::parse_line(std::string_view line) {
  const JsonValue doc = json_parse(line);
  if (!doc.is_object()) {
    fail_at(1, "request must be a JSON object, got " +
                   std::string(to_string(doc.kind)));
  }
  Request req;
  bool have_id = false;
  bool have_op = false;
  for (const JsonValue::Member& m : doc.object) {
    if (m.key == "id") {
      req.id = expect_kind(m, JsonValue::Kind::kString).string;
      have_id = true;
    } else if (m.key == "op") {
      const std::string& name =
          expect_kind(m, JsonValue::Kind::kString).string;
      const std::optional<RequestOp> op = parse_op(name);
      if (!op) fail_at(m.pos, "unknown op '" + name + "'");
      req.op = *op;
      have_op = true;
    } else if (m.key == "workload") {
      req.workload = expect_kind(m, JsonValue::Kind::kString).string;
    } else if (m.key == "keys") {
      req.keys = read_u64(m, kMaxKeys);
    } else if (m.key == "requests") {
      req.requests = read_u64(m, kMaxRequests);
    } else if (m.key == "seed") {
      req.seed = read_u64(m, std::numeric_limits<std::uint64_t>::max());
    } else if (m.key == "store") {
      const std::string& name =
          expect_kind(m, JsonValue::Kind::kString).string;
      if (!kvstore::parse_store_kind(name)) {
        fail_at(m.pos, "unknown store '" + name + "'");
      }
      req.store = name;
    } else if (m.key == "tiered") {
      req.tiered = expect_kind(m, JsonValue::Kind::kBool).boolean;
    } else if (m.key == "model") {
      const std::string& name =
          expect_kind(m, JsonValue::Kind::kString).string;
      if (!core::parse_estimate_model(name)) {
        fail_at(m.pos, "unknown model '" + name + "'");
      }
      req.model = name;
    } else if (m.key == "p") {
      req.p = read_fraction(m);
    } else if (m.key == "slo") {
      req.slo = read_fraction(m);
    } else if (m.key == "repeats") {
      const std::uint64_t r = read_u64(m, kMaxRepeats);
      if (r == 0) fail_at(m.pos, "field 'repeats' must be >= 1");
      req.repeats = static_cast<std::uint32_t>(r);
    } else if (m.key == "deadline_ms") {
      req.deadline_ms = read_u64(m, kMaxDeadlineMs);
    } else if (m.key == "timing") {
      req.timing = expect_kind(m, JsonValue::Kind::kBool).boolean;
    } else {
      fail_at(m.pos, "unknown field '" + m.key + "'");
    }
  }
  if (!have_id || req.id.empty()) {
    fail_at(1, "request requires a non-empty 'id'");
  }
  if (!have_op) fail_at(1, "request requires an 'op'");
  return req;
}

std::string Response::to_json_line() const {
  std::string out = "{";
  out += "\"id\":" + json_quote(id);
  out += ",\"op\":" + json_quote(to_string(op));
  if (ok) {
    out += ",\"ok\":true";
    out += ",\"output\":" + json_quote(output);
    if (!csv.empty()) out += ",\"csv\":" + json_quote(csv);
  } else {
    out += ",\"ok\":false";
    out += ",\"error\":{\"code\":" + json_quote(error_code);
    out += ",\"message\":" + json_quote(error_message);
    if (error_position > 0) {
      out += ",\"position\":" + std::to_string(error_position);
    }
    out += "}";
  }
  if (timing) {
    out += ",\"timing\":{\"queue_ms\":" + json_number(queue_ms);
    out += ",\"run_ms\":" + json_number(run_ms);
    out += ",\"cells_run\":" + std::to_string(cells_run);
    out += "}";
  }
  out += "}";
  return out;
}

Response error_response(std::string id, RequestOp op,
                        const util::Error& error) {
  Response r;
  r.id = std::move(id);
  r.op = op;
  r.ok = false;
  r.error_code = std::string(util::to_string(error.code));
  r.error_message = error.message;
  return r;
}

Response parse_error_response(const util::ParseError& e) {
  Response r;
  r.op = RequestOp::kAdvise;
  r.ok = false;
  r.error_code = "parse_error";
  r.error_message = e.what();
  r.error_position = e.line();
  return r;
}

}  // namespace mnemo::serve
