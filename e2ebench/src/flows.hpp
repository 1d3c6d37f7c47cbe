#pragma once

// The three workloads. Each drives Mnemo only through entry points its
// users reach (core::Session, the Mnemo facade, PlacementEngine,
// CampaignRunner::measure_grid, serve::Server::submit_line/stats) and
// returns its end-to-end and per-layer numbers by name; main.cpp owns the
// metric lists and the result line.

#include <map>
#include <string>

#include "harness.hpp"

namespace e2e {

struct Context {
  const Options& opt;
  Tracer& tracer;
  Expectations& expect;
};

struct Outcome {
  /// Checks beyond the digest table, which main.cpp consults itself.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  /// Layers the workload does not exercise are absent (reported as 0).
  std::map<std::string, double> layers;
};

Outcome run_consult(Context& ctx);
Outcome run_sweep(Context& ctx);
Outcome run_serve(Context& ctx);

/// Record mode: compute every expected digest of a workload once.
void record_consult(Expectations& expect);
void record_sweep(Expectations& expect);
void record_serve(Expectations& expect);

}  // namespace e2e
