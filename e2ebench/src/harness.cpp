#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

namespace e2e {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- arguments -----------------------------------------------------------

std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                         std::uint64_t lo, std::uint64_t hi) {
  const std::string name(flag);
  if (text.empty()) throw ArgError(name + ": empty value");
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw ArgError(name + ": '" + std::string(text) +
                     "' is not a non-negative integer");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      throw ArgError(name + ": '" + std::string(text) + "' is too large");
    }
    v = v * 10 + digit;
  }
  if (v < lo || v > hi) {
    throw ArgError(name + ": " + std::string(text) + " is outside [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

Options parse_options(const std::vector<std::string_view>& args) {
  Options o;
  std::map<std::string, std::string> seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string flag(args[i]);
    if (flag == "--record-digests") {
      if (seen.count(flag) != 0) throw ArgError(flag + ": given twice");
      seen[flag] = "";
      continue;
    }
    static const char* const kValued[] = {"--workload", "--seed",
                                          "--seconds",  "--trace",
                                          "--digests",  "--out"};
    if (std::find(std::begin(kValued), std::end(kValued), flag) ==
        std::end(kValued)) {
      throw ArgError("unknown argument '" + flag + "'");
    }
    if (seen.count(flag) != 0) throw ArgError(flag + ": given twice");
    if (i + 1 >= args.size()) throw ArgError(flag + ": missing value");
    seen[flag] = std::string(args[++i]);
  }
  o.record = seen.count("--record-digests") != 0;
  const auto need = [&](const std::string& flag) -> const std::string& {
    const auto it = seen.find(flag);
    if (it == seen.end()) throw ArgError(flag + ": required");
    return it->second;
  };
  o.digests = need("--digests");
  o.out_dir = need("--out");
  if (o.digests.empty()) throw ArgError("--digests: empty path");
  if (o.out_dir.empty()) throw ArgError("--out: empty path");
  if (o.record) {
    for (const char* f : {"--workload", "--seed", "--seconds", "--trace"}) {
      if (seen.count(f) != 0) {
        throw ArgError(std::string(f) + ": not used with --record-digests");
      }
    }
    return o;
  }
  o.workload = need("--workload");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    throw ArgError("--workload: unknown workload '" + o.workload +
                   "' (consult, sweep or serve)");
  }
  o.seed = parse_uint("--seed", need("--seed"), 0, UINT64_MAX);
  o.seconds = parse_uint("--seconds", need("--seconds"), 1, 120);
  o.trace = parse_uint("--trace", need("--trace"), 0, 1) == 1;
  return o;
}

// ---- statistics ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t min_samples_for(double q) {
  // n * (1 - q) >= 10; the epsilon absorbs 1 - q's rounding (1 - 0.95 is
  // a hair above 0.05).
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

double highest_supported_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (n >= min_samples_for(q)) return q;
  }
  return 0.0;
}

Tail tail(const std::vector<double>& v, double q) {
  if (v.size() < min_samples_for(q)) {
    throw std::logic_error("p" + std::to_string(q * 100) + " needs " +
                           std::to_string(min_samples_for(q)) +
                           " samples, have " + std::to_string(v.size()));
  }
  return Tail{q, v.size(), quantile(v, q)};
}

std::string describe(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%g of n=%zu", t.q * 100, t.n);
  return buf;
}

// ---- seeded randomness ---------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

// ---- spans ---------------------------------------------------------------

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t Tracer::new_id() {
  std::lock_guard lock(mu_);
  return next_id_++;
}

void Tracer::add(Span span) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(span));
}

Tracer& untraced() {
  static Tracer off(false);
  return off;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
        "\"parent\":%llu,\"op\":%llu}}%s\n",
        s.name.c_str(), layer.c_str(), s.tid,
        ms_between(origin_, s.start) * 1e3, ms_between(s.start, s.end) * 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.op),
        i + 1 < all.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

Scope::Scope(Tracer& tracer, std::string_view name, std::uint64_t op,
             std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.id = tracer_.new_id();
  span_.parent = parent;
  span_.op = op;
  span_.name = std::string(name);
  span_.tid = thread_index();
  span_.start = Clock::now();
}

Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end = Clock::now();
  tracer_.add(std::move(span_));
}

std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    for (std::size_t i = 0; i < iv.size();) {
      auto [lo, hi] = iv[i];
      for (++i; i < iv.size() && iv[i].first <= hi; ++i) {
        hi = std::max(hi, iv[i].second);
      }
      covered += ms_between(lo, hi);
    }
    LayerTime& lt = out[s.name];
    const double total = ms_between(s.start, s.end);
    ++lt.count;
    lt.total_ms += total;
    lt.self_ms += total - covered;
  }
  return out;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

// ---- open loop -----------------------------------------------------------

OpenLoop open_loop(const std::vector<Timing>& timings) {
  OpenLoop o;
  o.latency_ms.reserve(timings.size());
  o.late_ms.reserve(timings.size());
  for (const Timing& t : timings) {
    o.latency_ms.push_back(t.done_ms - t.due_ms);
    o.late_ms.push_back(t.sent_ms - t.due_ms);
  }
  return o;
}

std::vector<double> poisson_schedule(std::size_t n, double span_ms,
                                     Rng& rng) {
  std::vector<double> t(n);
  for (double& x : t) x = rng.uniform() * span_ms;
  std::sort(t.begin(), t.end());
  return t;
}

// ---- process probes ------------------------------------------------------

namespace {

double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB
    }
  }
  throw std::runtime_error(std::string("no ") + field +
                           " in /proc/self/status");
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM"); }
double rss_mb() { return status_mb("VmRSS"); }

void warm_up(double seconds) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const auto spin = [until](std::uint64_t x) {
    while (Clock::now() < until) {
      for (int k = 0; k < 1024; ++k) x = x * 6364136223846793005ULL + 1;
    }
    if (x == 0) std::abort();  // keeps the loop from being elided
  };
  // The calling thread is one of the spinners; every spinner stops by
  // itself at `until`.
  const unsigned n = std::max(1U, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  try {
    for (unsigned i = 1; i < n; ++i) threads.emplace_back(spin, i + 1);
  } catch (...) {
    for (std::thread& t : threads) t.join();
    throw;
  }
  spin(1);
  for (std::thread& t : threads) t.join();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// ---- host speed ----------------------------------------------------------

namespace {

double time_reference_kernel() {
  constexpr int kChainSteps = 100'000;
  constexpr int kLoadSteps = 1'000;
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 20);  // 8 MiB
    std::uint64_t z = 12345;
    for (std::uint64_t& v : t) {
      z = z * 6364136223846793005ULL + 1442695040888963407ULL;
      v = z >> 17;
    }
    return t;
  }();
  static volatile std::uint64_t sink = 0;  // keeps the work from being elided
  const std::uint64_t mask = table.size() - 1;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = table[sink & mask];
  for (int k = 0; k < kChainSteps; ++k) x = x * 6364136223846793005ULL + 1;
  for (int k = 0; k < kLoadSteps; ++k) {
    x = table[(x ^ static_cast<std::uint64_t>(k)) & mask];
  }
  const double ms = ms_between(t0, Clock::now());
  sink = x;
  return ms;
}

}  // namespace

double reference_burst_ms() {
  // A core that has just idled runs the first kernel about a tenth slower.
  (void)time_reference_kernel();
  return time_reference_kernel();
}

double slowdown(const std::vector<double>& burst_ms) {
  if (burst_ms.empty()) throw std::logic_error("no reference bursts timed");
  double sum = 0.0;
  for (const double ms : burst_ms) {
    sum += std::min(ms, kBurstCap * kNominalBurstMs);
  }
  return sum / static_cast<double>(burst_ms.size()) / kNominalBurstMs;
}

// ---- output checks -------------------------------------------------------

Digest& Digest::add(std::string_view bytes) {
  return this->bytes(bytes).add(static_cast<std::uint64_t>(bytes.size()));
}

void Digest::mix(std::uint64_t word) {
  h_ = (h_ ^ word) * 0x9e3779b97f4a7c15ULL;
  h_ ^= h_ >> 32;
}

void Digest::push(unsigned char c) {
  pending_ |= static_cast<std::uint64_t>(c) << (8 * fill_);
  if (++fill_ == 8) {
    mix(pending_);
    pending_ = 0;
    fill_ = 0;
  }
}

Digest& Digest::bytes(std::string_view bytes) {
  std::size_t i = 0;
  for (; i < bytes.size() && fill_ != 0; ++i) push(bytes[i]);
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    for (int k = 7; k >= 0; --k) {
      word = word << 8 | static_cast<unsigned char>(bytes[i + k]);
    }
    mix(word);
  }
  for (; i < bytes.size(); ++i) push(bytes[i]);
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) push(static_cast<unsigned char>(v >> (8 * i)));
  return *this;
}

std::string Digest::hex() const {
  Digest d = *this;
  d.mix(d.pending_ ^ (static_cast<std::uint64_t>(d.fill_) << 56));
  std::uint64_t h = d.h_;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Expectations::Expectations(std::string path, bool record)
    : path_(std::move(path)), record_(record) {
  if (record_) return;
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("cannot read digest table " + path_);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    std::string extra;
    if (!(fields >> key >> hex) || (fields >> extra) || hex.size() != 16) {
      throw std::runtime_error(path_ + ":" + std::to_string(lineno) +
                               ": expected '<key> <16 hex digits>'");
    }
    table_[key] = hex;
  }
}

bool Expectations::check(const std::string& key, const std::string& actual) {
  if (record_) {
    table_[key] = actual;
    return true;
  }
  const auto it = table_.find(key);
  if (it != table_.end() && it->second == actual) return true;
  if (++bad_ <= 10) {
    std::fprintf(stderr, "output check: %s digest %s, expected %s\n",
                 key.c_str(), actual.c_str(),
                 it == table_.end() ? "(no entry)" : it->second.c_str());
  }
  return false;
}

void Expectations::save() const {
  std::ofstream out(path_);
  out << "# Expected output digests of the end-to-end benchmark "
         "(e2e::Digest); rewrite with --record-digests.\n";
  for (const auto& [key, hex] : table_) out << key << " " << hex << "\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path_);
}

// ---- result --------------------------------------------------------------

std::string result_json(const Result& r) {
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::logic_error("metric " + m.name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i == 0 ? "\"" : ",\"") + m.name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
