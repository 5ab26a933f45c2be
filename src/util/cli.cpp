#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace isoee::util {

Cli::Cli(std::string description) : description_(std::move(description)) {}

Cli& Cli::flag(const std::string& name, const std::string& default_value,
               const std::string& help) {
  if (flags_.find(name) == flags_.end()) order_.push_back(name);
  flags_[name] = Flag{default_value, default_value, help};
  return *this;
}

Cli& Cli::no_positional() {
  allow_positional_ = false;
  return *this;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (!allow_positional_) {
        std::fprintf(stderr, "unexpected argument '%s' (flags are spelled --name=value)\n%s",
                     arg.c_str(), usage().c_str());
        return false;
      }
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(), usage().c_str());
      return false;
    }
    if (!has_value) {
      // Accept `--flag value` unless the next token looks like a flag; a bare
      // boolean flag is set to "true".
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  return it != flags_.end() ? it->second.value : std::string();
}

namespace {

/// Throws, naming the flag, unless parsing `text` stopped at `end`, its end,
/// without overflow: a value is never read only up to where it stops making
/// sense ("2x" is not 2), and an empty or blank-led one is not 0.
void require_whole(const std::string& name, const std::string& text, const char* end,
                   const char* what) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": '" + text + "' is not " + what);
  }
}

}  // namespace

long long Cli::get_int(const std::string& name, long long min, long long max) const {
  const std::string text = get(name);
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  require_whole(name, text, end, "a whole number");
  if (value < min) {
    throw std::invalid_argument("--" + name + ": " + text + " is below the minimum " +
                                std::to_string(min));
  }
  if (value > max) {
    throw std::invalid_argument("--" + name + ": " + text + " is above the maximum " +
                                std::to_string(max));
  }
  return value;
}

double Cli::get_double(const std::string& name) const {
  const std::string text = get(name);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  require_whole(name, text, end, "a number");
  return value;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string Cli::usage() const {
  std::string out = description_ + "\n\nFlags:\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    out += "  --" + name + " (default: " + f.default_value + ")\n      " + f.help + "\n";
  }
  return out;
}

}  // namespace isoee::util
