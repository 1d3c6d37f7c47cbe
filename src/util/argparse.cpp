#include "util/argparse.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"

namespace mnemo::util {

namespace {

/// Damerau-Levenshtein distance (insert/delete/substitute/transpose), the
/// classic typo metric: "moedl" is one transposition from "model".
std::size_t edit_distance(const std::string& a, const std::string& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::vector<std::size_t>> d(n + 1,
                                          std::vector<std::size_t>(m + 1));
  for (std::size_t i = 0; i <= n; ++i) d[i][0] = i;
  for (std::size_t j = 0; j <= m; ++j) d[0][j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t sub = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + sub});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[n][m];
}

}  // namespace

std::string closest_match(const std::string& query,
                          const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = 0;
  for (const std::string& candidate : candidates) {
    const std::size_t distance = edit_distance(query, candidate);
    if (best.empty() || distance < best_distance) {
      best = candidate;
      best_distance = distance;
    }
  }
  // Only suggest when the candidate is plausibly a typo of the query, not
  // a different word entirely.
  if (best.empty() || best_distance > 2 || best_distance >= query.size()) {
    return "";
  }
  return best;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, std::string help) {
  MNEMO_EXPECTS(!specs_.contains(name));
  Spec s;
  s.help = std::move(help);
  s.is_flag = true;
  specs_.emplace(name, std::move(s));
}

void ArgParser::add_option(const std::string& name, std::string help,
                           std::string default_value) {
  MNEMO_EXPECTS(!specs_.contains(name));
  Spec s;
  s.help = std::move(help);
  s.value = std::move(default_value);
  specs_.emplace(name, std::move(s));
}

bool ArgParser::parse(const std::vector<std::string>& args,
                      std::string* error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      if (error != nullptr) {
        std::vector<std::string> known;
        known.reserve(specs_.size());
        for (const auto& [known_name, _] : specs_) {
          known.push_back(known_name);
        }
        *error = "unknown option --" + name;
        const std::string suggestion = closest_match(name, known);
        if (!suggestion.empty()) {
          *error += " (did you mean --" + suggestion + "?)";
        }
      }
      return false;
    }
    Spec& spec = it->second;
    if (spec.seen) {
      if (error != nullptr) {
        *error = "duplicate option --" + name + " (given more than once)";
      }
      return false;
    }
    spec.seen = true;
    if (spec.is_flag) {
      if (has_inline) {
        if (error != nullptr) *error = "--" + name + " takes no value";
        return false;
      }
      continue;
    }
    if (has_inline) {
      spec.value = std::move(inline_value);
    } else {
      if (i + 1 >= args.size()) {
        if (error != nullptr) *error = "--" + name + " requires a value";
        return false;
      }
      spec.value = args[++i];
    }
  }
  return true;
}

bool ArgParser::has_flag(const std::string& name) const {
  const auto it = specs_.find(name);
  MNEMO_EXPECTS(it != specs_.end());
  return it->second.seen;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = specs_.find(name);
  MNEMO_EXPECTS(it != specs_.end() && !it->second.is_flag);
  return it->second.value;
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_double(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& v = get(name);
  const std::optional<double> value = parse_double(v);
  if (!value) {
    throw std::invalid_argument("--" + name + ": not a number: " + v);
  }
  return *value;
}

std::uint64_t ArgParser::get_u64(const std::string& name) const {
  const std::string& v = get(name);
  const std::optional<std::uint64_t> value = parse_u64(v);
  if (!value) {
    throw std::invalid_argument("--" + name + ": not an integer: " + v);
  }
  return *value;
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    out << "  --" << name;
    if (!spec.is_flag) out << " <value>";
    out << "\n      " << spec.help;
    if (!spec.is_flag && !spec.value.empty()) {
      out << " (default: " << spec.value << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace mnemo::util
