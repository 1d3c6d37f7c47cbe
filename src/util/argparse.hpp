#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mnemo::util {

/// Case-sensitive nearest-match over `candidates` by Damerau-Levenshtein
/// edit distance, for "did you mean" diagnostics. Returns the closest
/// candidate when its distance is small relative to the query (<= 2, and
/// strictly less than the query length), empty string otherwise.
[[nodiscard]] std::string closest_match(
    const std::string& query, const std::vector<std::string>& candidates);

/// Strict whole-string numbers — the one number parser behind
/// ArgParser::get_u64/get_double and the positional arguments of the
/// bench and example binaries: nullopt on an empty string, a sign on the
/// unsigned form, any trailing character, or a value out of range —
/// never a silent 0.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

/// Minimal command-line parser for the mnemo CLI: boolean flags and
/// string-valued options (`--name value` or `--name=value`), plus
/// positional arguments. Unknown flags (reported with a "did you mean"
/// nearest-match suggestion), duplicated flags and missing values are
/// errors rather than being ignored — callers print the message plus
/// help() and exit 2, the CLI's usage-error convention.
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Register a boolean flag (present/absent).
  void add_flag(const std::string& name, std::string help);

  /// Register a valued option with a default.
  void add_option(const std::string& name, std::string help,
                  std::string default_value);

  /// Parse argv[start..). Returns false and fills *error on failure.
  bool parse(const std::vector<std::string>& args, std::string* error);

  [[nodiscard]] bool has_flag(const std::string& name) const;
  [[nodiscard]] const std::string& get(const std::string& name) const;
  /// The option's value through parse_double/parse_u64; a malformed value
  /// throws std::invalid_argument naming the option.
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Rendered usage text.
  [[nodiscard]] std::string help() const;

 private:
  struct Spec {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool seen = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> positional_;
};

}  // namespace mnemo::util
