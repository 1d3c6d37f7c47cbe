#pragma once

// Helpers of the end-to-end benchmark that do not touch Mnemo itself:
// strict argument parsing, sample statistics and the tail-percentile
// rule, in-memory spans with self time and Chrome trace-event export,
// open-loop accounting, process probes, the host-speed reference, output
// digests and the one-line JSON result. selftest.cpp covers them.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point from, Clock::time_point to);

// ---- arguments -----------------------------------------------------------

/// A bad command-line argument. The message names the argument; the
/// benchmark exits with code 2 on it.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decimal digits only (no sign, blank or suffix), within [lo, hi].
/// Throws ArgError naming `flag` otherwise.
[[nodiscard]] std::uint64_t parse_uint(std::string_view flag,
                                       std::string_view text,
                                       std::uint64_t lo, std::uint64_t hi);

struct Options {
  std::string workload;  ///< consult | sweep | serve
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string digests;     ///< expected-digest table
  std::string out_dir;     ///< serve caches and trace files go here
  bool record = false;     ///< rewrite the digest table instead of checking
};

inline constexpr std::string_view kWorkloads[] = {"consult", "sweep",
                                                  "serve"};

/// Parses the arguments after argv[0]. Every flag may appear once;
/// --workload, --seed, --seconds, --trace, --digests and --out are
/// required unless --record-digests is given. Throws ArgError.
[[nodiscard]] Options parse_options(const std::vector<std::string_view>& args);

// ---- statistics ----------------------------------------------------------

/// Quantile q in [0, 1] of a non-empty sample, interpolating linearly
/// between order statistics.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Fewest samples that leave at least ten beyond the q-quantile.
[[nodiscard]] std::size_t min_samples_for(double q);

/// The highest of p99.9, p99, p95, p90, p75 and p50 that n samples
/// support with ten beyond it; 0 when n < 20.
[[nodiscard]] double highest_supported_quantile(std::size_t n);

struct Tail {
  double q = 0.0;
  std::size_t n = 0;
  double value = 0.0;
};

/// The q-quantile with its sample count. Throws std::logic_error when
/// fewer than ten samples lie beyond q.
[[nodiscard]] Tail tail(const std::vector<double>& v, double q);

/// "p95 of n=210"
[[nodiscard]] std::string describe(const Tail& t);

// ---- seeded randomness ---------------------------------------------------

/// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Fisher-Yates permutation of 0..n-1.
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n, Rng& rng);

// ---- spans ---------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::uint64_t op = 0;      ///< the operation (request) it belongs to
  std::string name;          ///< "<layer>.<call>", e.g. "core.measure"
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t tid = 0;  ///< small per-thread index
};

/// Spans kept in memory and written out at exit. A disabled tracer
/// records nothing: metric runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t new_id();
  void add(Span span);
  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" events, microseconds since the
  /// tracer's creation); opens in Perfetto and chrome://tracing.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;  // guarded by mu_
  std::vector<Span> spans_;    // guarded by mu_
};

/// A tracer that records nothing, for operations a traced run leaves
/// untraced.
[[nodiscard]] Tracer& untraced();

/// RAII span on the current thread.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::uint64_t op,
        std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// 0 when the tracer is off.
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Index of the calling thread for span records (1, 2, ... in order of
/// first use).
[[nodiscard]] std::uint32_t thread_index();

struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per span name: count, summed duration, and self time — each span's
/// duration minus the part of it that its children cover. Children may
/// nest or overlap; the covered part is the union of their intervals,
/// clipped to the parent.
[[nodiscard]] std::map<std::string, LayerTime> self_times(
    const std::vector<Span>& spans);

/// Durations (ms) of the spans called `name`.
[[nodiscard]] std::vector<double> durations_ms(const std::vector<Span>& spans,
                                               std::string_view name);

// ---- open loop -----------------------------------------------------------

/// One open-loop request as the load generator saw it, in ms since the
/// schedule's start.
struct Timing {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
};

struct OpenLoop {
  /// done - due: a request delayed by a stalled generator pays the stall.
  std::vector<double> latency_ms;
  /// sent - due: how late the generator ran.
  std::vector<double> late_ms;
};

[[nodiscard]] OpenLoop open_loop(const std::vector<Timing>& timings);

/// n arrival offsets in [0, span_ms), ascending: a Poisson process
/// conditioned on exactly n arrivals, so every seed gets the same count
/// and length.
[[nodiscard]] std::vector<double> poisson_schedule(std::size_t n,
                                                   double span_ms, Rng& rng);

// ---- process probes ------------------------------------------------------

[[nodiscard]] double peak_rss_mb();  ///< VmHWM
[[nodiscard]] double rss_mb();       ///< VmRSS

/// Keeps every hardware thread busy for `seconds` and returns when all
/// spinners have ended. The host this benchmark was sized on runs a core
/// at a quarter of its speed for about a second after the core has idled.
void warm_up(double seconds);

/// User + system time of the whole process.
[[nodiscard]] double process_cpu_seconds();

// ---- host speed ----------------------------------------------------------

/// A shared host changes speed from minute to minute as its other tenants
/// come and go, and Mnemo's times move with it. The benchmark times a
/// fixed reference kernel of its own while Mnemo is idle and reports
/// times scaled to the kernel's nominal speed: a measured time divided by
/// slowdown() of the bursts timed alongside it.
///
/// The kernel is a chain of 100k integer multiply-adds followed by 1000
/// dependent loads from an 8 MiB table, so it slows both with the core
/// clock and with the memory system. It takes about kNominalBurstMs on
/// an idle host of the kind the benchmark was sized on.
inline constexpr double kNominalBurstMs = 0.25;

/// One burst: runs the reference kernel twice and returns the second
/// run's wall time in ms; the first brings the core back from whatever
/// ran before. The first call also builds the table, untimed.
[[nodiscard]] double reference_burst_ms();

/// A burst counts as at most this many nominal bursts in slowdown(), so
/// that one stall of many ms cannot outweigh a run's other bursts.
inline constexpr double kBurstCap = 4.0;

/// Mean burst time over kNominalBurstMs: 1.2 means the host ran the
/// kernel 20% slower than nominal. A mean, not a median: an operation
/// pays for the host's short stalls in proportion to how often they
/// come, and a median of bursts would ignore them. Throws
/// std::logic_error when empty.
[[nodiscard]] double slowdown(const std::vector<double>& burst_ms);

// ---- output checks -------------------------------------------------------

/// A 64-bit hash of a byte stream, mixed eight bytes at a time so that
/// half a megabyte digests in well under a millisecond. Numbers enter as
/// their bit patterns. How a stream is split does not matter:
/// bytes("ab") equals bytes("a").bytes("b").
class Digest {
 public:
  /// The bytes, then their length: add("ab") differs from add("a").add("b").
  Digest& add(std::string_view bytes);
  /// The bytes alone, for streaming a string in pieces.
  Digest& bytes(std::string_view bytes);
  Digest& add(double v);
  Digest& add(std::uint64_t v);
  [[nodiscard]] std::string hex() const;

 private:
  void mix(std::uint64_t word);
  void push(unsigned char c);

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t pending_ = 0;  ///< bytes not yet mixed, first in the low byte
  unsigned fill_ = 0;          ///< how many
};

/// The checked-in table of expected output digests ("key hex" lines).
/// In record mode every check passes and stores the actual digest.
class Expectations {
 public:
  Expectations(std::string path, bool record);

  /// False (and a note on stderr) on a mismatch or a missing entry.
  bool check(const std::string& key, const std::string& actual);
  [[nodiscard]] std::size_t mismatches() const noexcept { return bad_; }
  /// Record mode: write the table back.
  void save() const;

 private:
  std::string path_;
  bool record_;
  std::map<std::string, std::string> table_;
  std::size_t bad_ = 0;
};

// ---- result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// with every digit of each value. Throws std::logic_error on a
/// non-finite value.
[[nodiscard]] std::string result_json(const Result& r);

}  // namespace e2e
