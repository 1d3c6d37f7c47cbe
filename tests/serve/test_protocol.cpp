#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/json.hpp"
#include "util/status.hpp"

namespace mnemo::serve {
namespace {

/// Round-trip property: to_json_line() -> parse_line() reproduces the
/// request exactly, for every op and a spread of field values.
TEST(ServeProtocol, EveryOpRoundTripsExactly) {
  for (const RequestOp op :
       {RequestOp::kCharacterize, RequestOp::kMeasure, RequestOp::kAdvise,
        RequestOp::kReport, RequestOp::kStats}) {
    Request req;
    req.id = "round/trip \"1\"";
    req.op = op;
    req.workload = "social";
    req.keys = 12345;
    req.requests = 67890;
    req.seed = 0xdeadbeefcafef00dULL;  // must not round through double
    req.store = "cachet";
    req.tiered = true;
    req.model = "uniform";
    req.p = 0.35;
    req.slo = 0.07;
    req.repeats = 4;

    const Request back = Request::parse_line(req.to_json_line());
    EXPECT_EQ(back, req) << to_string(op);
  }
}

TEST(ServeProtocol, DefaultsMatchTheCliDefaults) {
  const Request req = Request::parse_line(R"({"id":"r1","op":"advise"})");
  EXPECT_EQ(req.workload, "trending");
  EXPECT_EQ(req.keys, 0u);
  EXPECT_EQ(req.requests, 0u);
  EXPECT_EQ(req.seed, 0u);
  EXPECT_EQ(req.store, "vermilion");
  EXPECT_FALSE(req.tiered);
  EXPECT_EQ(req.model, "size-aware");
  EXPECT_DOUBLE_EQ(req.p, 0.2);
  EXPECT_DOUBLE_EQ(req.slo, 0.1);
  EXPECT_EQ(req.repeats, 2u);
}

std::size_t fail_pos(std::string_view line) {
  try {
    (void)Request::parse_line(line);
    return 0;
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.file(), "request");
    return e.line();
  }
}

TEST(ServeProtocol, MissingIdOrOpIsRejected) {
  EXPECT_NE(fail_pos(R"({"op":"advise"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"","op":"advise"})"), 0u);
  EXPECT_NE(fail_pos("[]"), 0u);
  EXPECT_NE(fail_pos("42"), 0u);
}

TEST(ServeProtocol, UnknownFieldIsRejectedAtItsPosition) {
  const std::string_view line = R"({"id":"r1","op":"advise","zz":1})";
  // The opening '"' of "zz" is byte 26, 1-based.
  EXPECT_EQ(fail_pos(line), 26u);
}

TEST(ServeProtocol, UnknownNamesAreRejected) {
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"frobnicate"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","store":"redis"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","model":"magic"})"), 0u);
}

TEST(ServeProtocol, WrongTypesAreRejected) {
  EXPECT_NE(fail_pos(R"({"id":1,"op":"advise"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","keys":"many"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","keys":1.5})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","keys":-1})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","tiered":"yes"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","p":0})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","slo":-0.1})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","p":1.5})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","p":1})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","slo":2})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","slo":1})"), 0u);
}

TEST(ServeProtocol, OutOfRangeSizesAreRejected) {
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","keys":1000001})"), 0u);
  EXPECT_NE(
      fail_pos(R"({"id":"r1","op":"advise","requests":10000001})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","repeats":0})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","repeats":17})"), 0u);
}

TEST(ServeProtocol, DuplicateFieldsAreRejected) {
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","id":"r2"})"), 0u);
  EXPECT_NE(fail_pos(R"({"id":"r1","op":"advise","op":"report"})"), 0u);
}

TEST(ServeProtocol, TruncationAtEveryPrefixIsATypedError) {
  Request req;
  req.id = "prefix-corpus";
  req.seed = 42;
  const std::string line = req.to_json_line();
  for (std::size_t n = 0; n < line.size(); ++n) {
    EXPECT_NE(fail_pos(line.substr(0, n)), 0u) << "prefix length " << n;
  }
  EXPECT_EQ(fail_pos(line), 0u);
}

TEST(ServeProtocol, OversizedStringFieldIsATypedError) {
  const std::string line = R"({"id":")" + std::string(8192, 'x') +
                           R"(","op":"advise"})";
  EXPECT_NE(fail_pos(line), 0u);
}

TEST(ServeProtocol, OkResponseLineShape) {
  Response r;
  r.id = "r1";
  r.op = RequestOp::kAdvise;
  r.ok = true;
  r.output = "line one\nline two\n";
  EXPECT_EQ(r.to_json_line(),
            R"({"id":"r1","op":"advise","ok":true,)"
            R"("output":"line one\nline two\n"})");

  r.op = RequestOp::kReport;
  r.csv = "a,b\n";
  EXPECT_NE(r.to_json_line().find(R"("csv":"a,b\n")"), std::string::npos);
}

TEST(ServeProtocol, ErrorResponsesCarryCodeMessageAndPosition) {
  const Response err = error_response(
      "r9", RequestOp::kMeasure,
      util::Error{util::ErrorCode::kOverloaded, "queue full"});
  EXPECT_EQ(err.to_json_line(),
            R"({"id":"r9","op":"measure","ok":false,)"
            R"("error":{"code":"overloaded","message":"queue full"}})");

  const Response parse_err = parse_error_response(
      util::ParseError("request", 12, "unknown op 'bogus'"));
  const std::string line = parse_err.to_json_line();
  EXPECT_NE(line.find(R"("code":"parse_error")"), std::string::npos);
  EXPECT_NE(line.find(R"("position":12)"), std::string::npos);
  EXPECT_NE(line.find(R"("id":"")"), std::string::npos);
}

/// Every response line is itself a valid JSON document — clients can
/// parse what the server emits with the same parser.
TEST(ServeProtocol, ResponseLinesAreValidJson) {
  Response ok;
  ok.id = "r\"1\"";
  ok.ok = true;
  ok.output = std::string("bytes\twith\nnewlines") + '\x02';
  const JsonValue v = json_parse(ok.to_json_line());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("output")->value.string, ok.output);

  const JsonValue e = json_parse(
      error_response("x", RequestOp::kStats,
                     util::Error{util::ErrorCode::kInvalidArgument, "m\"g"})
          .to_json_line());
  EXPECT_EQ(e.find("error")->value.find("message")->value.string, "m\"g");
}

}  // namespace
}  // namespace mnemo::serve
