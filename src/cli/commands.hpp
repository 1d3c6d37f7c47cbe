#pragma once

#include <ostream>
#include <string>
#include <vector>

/// One declaration per mnemo subcommand; implementations live in the
/// cmd_*.cpp files grouped by theme (workload tooling, consultant
/// commands, pipeline stages, system info). The dispatcher in cli.cpp is
/// the only consumer.
namespace mnemo::cli {

using Args = std::vector<std::string>;

// cmd_workloads.cpp — workload tooling
int cmd_workloads(const Args& args, std::ostream& out, std::ostream& err);
int cmd_generate(const Args& args, std::ostream& out, std::ostream& err);
int cmd_spec(const Args& args, std::ostream& out, std::ostream& err);
int cmd_inspect(const Args& args, std::ostream& out, std::ostream& err);
int cmd_downsample(const Args& args, std::ostream& out, std::ostream& err);

// cmd_profile.cpp — one-shot consultant commands
int cmd_plan(const Args& args, std::ostream& out, std::ostream& err);
int cmd_compare(const Args& args, std::ostream& out, std::ostream& err);
int cmd_tails(const Args& args, std::ostream& out, std::ostream& err);

// cmd_pipeline.cpp — staged pipeline over the artifact cache
int cmd_run(const Args& args, std::ostream& out, std::ostream& err);
int cmd_characterize(const Args& args, std::ostream& out, std::ostream& err);
int cmd_measure(const Args& args, std::ostream& out, std::ostream& err);
int cmd_advise(const Args& args, std::ostream& out, std::ostream& err);
int cmd_report(const Args& args, std::ostream& out, std::ostream& err);

// cmd_serve.cpp — long-running consultant service
int cmd_serve(const Args& args, std::ostream& out, std::ostream& err);

// cmd_fsck.cpp — artifact cache crash recovery
int cmd_fsck(const Args& args, std::ostream& out, std::ostream& err);

// cmd_system.cpp — platform/system commands
int cmd_migrate(const Args& args, std::ostream& out, std::ostream& err);
int cmd_testbed(const Args& args, std::ostream& out, std::ostream& err);
int cmd_help(std::ostream& out);

}  // namespace mnemo::cli
