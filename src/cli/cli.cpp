#include "cli/cli.hpp"

#include <exception>
#include <functional>
#include <map>

#include "cli/commands.hpp"
#include "util/argparse.hpp"
#include "util/status.hpp"

/// Dispatcher only: each subcommand lives in its own cmd_*.cpp (see
/// commands.hpp for the grouping); shared option plumbing in
/// cli_common.cpp. This file owns command lookup, "did you mean"
/// suggestions and the exit-code conventions.
namespace mnemo::cli {

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty()) {
    cmd_help(out);
    return 2;
  }
  const std::string& command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  using Handler =
      std::function<int(const Args&, std::ostream&, std::ostream&)>;
  const std::map<std::string, Handler> commands = {
      {"workloads", cmd_workloads},
      {"generate", cmd_generate},
      {"spec", cmd_spec},
      {"inspect", cmd_inspect},
      {"downsample", cmd_downsample},
      {"profile", cmd_run},  // alias: the same pipeline as `run`
      {"plan", cmd_plan},
      {"compare", cmd_compare},
      {"tails", cmd_tails},
      {"run", cmd_run},
      {"characterize", cmd_characterize},
      {"measure", cmd_measure},
      {"advise", cmd_advise},
      {"report", cmd_report},
      {"serve", cmd_serve},
      {"fsck", cmd_fsck},
      {"migrate", cmd_migrate},
      {"testbed", cmd_testbed},
  };
  if (command == "help" || command == "--help") return cmd_help(out);
  const auto it = commands.find(command);
  if (it == commands.end()) {
    err << "unknown command: " << command;
    std::vector<std::string> names;
    names.reserve(commands.size());
    for (const auto& [name, handler] : commands) names.push_back(name);
    const std::string suggestion = util::closest_match(command, names);
    if (!suggestion.empty()) {
      err << " (did you mean " << suggestion << "?)";
    }
    err << "\n";
    cmd_help(err);
    return 2;
  }
  try {
    return it->second(rest, out, err);
  } catch (const util::ParseError& e) {
    // Malformed user input (spec/trace files): diagnostic already carries
    // file:line; exit 2 like other usage errors, not 1.
    err << "parse error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mnemo::cli
