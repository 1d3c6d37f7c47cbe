// Self-tests of the benchmark's helpers: the tail-percentile rule, self
// time from nested and overlapping spans, open-loop accounting, the host
// slowdown, strict argument parsing and the result line. run.py runs them after every
// build; the binary exits 1 when any check fails.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace {

using namespace e2e;

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest line %d: %s\n", line, what);
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void percentile_rule() {
  CHECK(min_samples_for(0.50) == 20);
  CHECK(min_samples_for(0.75) == 40);
  CHECK(min_samples_for(0.95) == 200);
  CHECK(min_samples_for(0.99) == 1000);
  CHECK(highest_supported_quantile(19) == 0.0);
  CHECK(highest_supported_quantile(20) == 0.50);
  CHECK(highest_supported_quantile(199) == 0.90);
  CHECK(highest_supported_quantile(200) == 0.95);
  CHECK(highest_supported_quantile(999) == 0.95);
  CHECK(highest_supported_quantile(1000) == 0.99);

  // n = 200: p95 leaves exactly ten samples beyond it, and is reported
  // with its count.
  const Tail t = tail(iota(200), 0.95);
  CHECK(t.n == 200);
  CHECK(near(t.value, 190.05));
  CHECK(describe(t) == "p95 of n=200");
  CHECK(throws([] { (void)tail(iota(199), 0.95); }));
  CHECK(throws([] { (void)tail(iota(999), 0.99); }));
  CHECK(near(quantile({5, 1, 3}, 0.5), 3.0));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
}

Span span(std::uint64_t id, std::uint64_t parent, const char* name,
          int start_ms, int end_ms) {
  const Clock::time_point t0{};
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start = t0 + std::chrono::milliseconds(start_ms);
  s.end = t0 + std::chrono::milliseconds(end_ms);
  return s;
}

void self_time() {
  // root [0,100): children a [10,40) and b [30,60) overlap, c [90,120)
  // runs past the root's end; a has a grandchild g [15,25).
  const std::vector<Span> spans = {
      span(1, 0, "root", 0, 100), span(2, 1, "a", 10, 40),
      span(3, 1, "b", 30, 60),    span(4, 1, "c", 90, 120),
      span(5, 2, "g", 15, 25),
  };
  const auto t = self_times(spans);
  // Covered: [10,60) U [90,100) = 60 ms, so root's self time is 40 ms —
  // not 100 - (30 + 30 + 30).
  CHECK(near(t.at("root").total_ms, 100.0));
  CHECK(near(t.at("root").self_ms, 40.0));
  CHECK(near(t.at("a").self_ms, 20.0));  // g nests inside a
  CHECK(near(t.at("b").self_ms, 30.0));
  CHECK(near(t.at("c").self_ms, 30.0));
  CHECK(near(t.at("g").self_ms, 10.0));

  // Two spans with one name aggregate.
  const auto twice =
      self_times({span(1, 0, "x", 0, 10), span(2, 0, "x", 5, 8)});
  CHECK(twice.at("x").count == 2);
  CHECK(near(twice.at("x").total_ms, 13.0));
  CHECK(durations_ms(spans, "a").size() == 1);
}

void open_loop_accounting() {
  // The generator stalled 50 ms before the second request: the stall
  // counts against that request's latency and shows as lateness.
  const OpenLoop o = open_loop({{0.0, 0.1, 8.0}, {10.0, 60.0, 66.0}});
  CHECK(near(o.latency_ms[0], 8.0));
  CHECK(near(o.latency_ms[1], 56.0));
  CHECK(near(o.late_ms[0], 0.1));
  CHECK(near(o.late_ms[1], 50.0));

  Rng a(7);
  Rng b(7);
  const std::vector<double> s = poisson_schedule(1000, 5000.0, a);
  CHECK(s == poisson_schedule(1000, 5000.0, b));  // same seed, same inputs
  CHECK(s.size() == 1000);
  CHECK(s.front() >= 0.0 && s.back() < 5000.0);
  bool sorted = true;
  for (std::size_t i = 1; i < s.size(); ++i) {
    sorted = sorted && s[i - 1] <= s[i];
  }
  CHECK(sorted);
}

void host_speed() {
  // The mean burst, with a stall of 40 ms counted as kBurstCap nominal
  // bursts: (1 + 1.5 + 1.5 + 4) / 4.
  CHECK(near(slowdown({kNominalBurstMs, 1.5 * kNominalBurstMs,
                       1.5 * kNominalBurstMs, 40.0}),
             (1.0 + 1.5 + 1.5 + kBurstCap) / 4.0));
  CHECK(near(slowdown({kNominalBurstMs}), 1.0));
  CHECK(throws([] { (void)slowdown({}); }));
  const double ms = reference_burst_ms();
  CHECK(ms > 0.0 && ms < 1000.0);
}

Options parse(std::vector<std::string_view> args) {
  return parse_options(args);
}

bool bad(std::vector<std::string_view> args, std::string_view names) {
  try {
    (void)parse_options(args);
  } catch (const ArgError& e) {
    return std::string(e.what()).find(names) != std::string::npos;
  }
  return false;
}

void arguments() {
  const std::vector<std::string_view> ok = {
      "--workload", "serve", "--seed", "42",     "--seconds", "20",
      "--trace",    "1",     "--digests", "d", "--out",     "o"};
  const Options o = parse(ok);
  CHECK(o.workload == "serve" && o.seed == 42 && o.seconds == 20 && o.trace);

  auto with = [&](std::string_view flag, std::string_view value) {
    std::vector<std::string_view> v = ok;
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) {
      if (v[i] == flag) {
        v[i + 1] = value;
        return v;
      }
    }
    v.push_back(flag);
    v.push_back(value);
    return v;
  };
  CHECK(bad(with("--seed", "abc"), "--seed"));
  CHECK(bad(with("--seed", "-1"), "--seed"));
  CHECK(bad(with("--seed", "12x"), "--seed"));
  CHECK(bad(with("--seed", ""), "--seed"));
  CHECK(bad(with("--seed", "99999999999999999999"), "--seed"));
  CHECK(bad(with("--seconds", "0"), "--seconds"));
  CHECK(bad(with("--seconds", "121"), "--seconds"));
  CHECK(bad(with("--trace", "2"), "--trace"));
  CHECK(bad(with("--workload", "bogus"), "bogus"));
  CHECK(bad({"--workload", "consult"}, "--digests"));
  CHECK(bad({"--frobnicate"}, "--frobnicate"));
  CHECK(parse(with("--seed", "18446744073709551615")).seed == UINT64_MAX);

  std::vector<std::string_view> twice = ok;
  twice.push_back("--seed");
  twice.push_back("1");
  CHECK(bad(twice, "given twice"));
}

void result_line() {
  Result r;
  r.attempted = 3;
  r.failed = 1;
  r.correct = false;
  r.metrics = {{"p50_ms", 1.0 / 3.0, "ms"}, {"setup_s", 2.5, "s"}};
  CHECK(result_json(r) ==
        "{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":{"
        "\"p50_ms\":{\"value\":0.33333333333333331,\"unit\":\"ms\"},"
        "\"setup_s\":{\"value\":2.5,\"unit\":\"s\"}}}");
  r.metrics.push_back({"bad", 0.0 / 0.0, "ms"});
  CHECK(throws([&] { (void)result_json(r); }));

  CHECK(Digest().add("ab").hex() != Digest().add("a").add("b").hex());
  CHECK(Digest().add(1.0).hex() == Digest().add(1.0).hex());
  // Streaming in pieces hashes the same byte stream as one call.
  const std::string text = "a report body that spans several words\n";
  Digest pieces;
  for (std::size_t i = 0; i < text.size(); i += 3) {
    pieces.bytes(std::string_view(text).substr(i, 3));
  }
  CHECK(pieces.hex() == Digest().bytes(text).hex());
  CHECK(Digest().bytes(text).hex() != Digest().bytes(text + " ").hex());
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  open_loop_accounting();
  host_speed();
  arguments();
  result_line();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: all passed\n");
  return 0;
}
