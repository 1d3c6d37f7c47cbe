#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace mnemo::cli {

/// Entry point of the `mnemo` command-line tool, factored out of main()
/// so the test suite can drive it. Returns the process exit code; all
/// output goes to the provided streams.
///
/// Subcommands (see commands.hpp for the per-file grouping):
///   workloads            list the built-in Table III workload suite
///   generate             materialize a workload trace to CSV
///   inspect              characterize a workload (skew, reuse, cache fit)
///   run                  run Mnemo/MnemoT on a workload, emit the advice
///   profile              alias of run
///   characterize         stage 1: access pattern and key ordering
///   measure              stage 2: baseline measurement campaign
///   advise               stages 1-4: SLO verdict against a warm cache
///   report               stages 1-5: byte-stable report artifact
///   plan                 capacity plan for the whole suite at an SLO
///   compare              profile one workload across all three stores
///   spec                 print a workload spec-file template
///   downsample           shrink a trace while preserving its distribution
///   tails                mixture-model tail estimates along the curve
///   migrate              dynamic re-tiering vs static placement
///   testbed              show the emulated platform (Table I)
///   help                 usage
///
/// Pipeline commands accept --cache-dir/--no-cache/--explain-cache and
/// reuse artifacts from the content-addressed store across invocations.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace mnemo::cli
