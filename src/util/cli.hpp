// Tiny command-line flag parser for examples and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown flags
// are reported; `--help` prints registered flags. This is intentionally small:
// the binaries in this repo need a handful of numeric knobs, nothing more.
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isoee::util {

class Cli {
 public:
  /// `description` appears at the top of --help output.
  explicit Cli(std::string description);

  /// Registers a flag with a default value and help text, returning *this for
  /// chaining. Values are stored as strings and converted on access.
  Cli& flag(const std::string& name, const std::string& default_value, const std::string& help);

  /// Declares that this binary takes no positional arguments: parse() then
  /// rejects any bare token (after printing usage) instead of collecting it.
  /// Flag-only binaries want this — a typo'd flag such as `-cache-dir=X`
  /// (single dash) or `cache-dir=X` (no dashes) otherwise parses as a
  /// positional argument and is silently ignored.
  Cli& no_positional();

  /// Parses argv. Returns false (after printing usage) if --help was given or
  /// an unknown/malformed flag was encountered.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  /// The flag's value as a number in [min, max]. Throws std::invalid_argument,
  /// naming the flag, unless the whole value is one ("--seed abc", "--jobs 2.5"
  /// and a bare "--seed", which reads "true", all throw) and lies in range.
  long long get_int(const std::string& name, long long min = LLONG_MIN,
                    long long max = LLONG_MAX) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::string description_;
  std::vector<std::string> order_;  // registration order, for --help
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool allow_positional_ = true;
};

}  // namespace isoee::util
