// Minimal leveled logger for the isoee libraries.
//
// Logging is kept deliberately simple: a global level, a single sink
// (stderr by default), and printf-style formatting. Hot simulation paths
// check the level before formatting so disabled logging costs one branch.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace isoee::util {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the current global log level.
LogLevel log_level();

/// Sets the global log level. Thread-safe (relaxed atomic).
void set_log_level(LogLevel level);

/// Parses "trace" / "debug" / "info" / "warn" / "error" / "off".
/// Unknown strings map to kInfo.
LogLevel parse_log_level(const std::string& name);

/// Sets the global log level from the ISOEE_LOG environment variable, when it
/// is set and not empty. Binaries call this first, before anything can log.
void set_log_level_from_env();

/// Redirects log output (default: stderr). Pass nullptr to restore stderr.
/// The caller retains ownership of the stream.
void set_log_sink(std::FILE* sink);

/// Core logging call; prefer the ISOEE_LOG_* macros below.
void log_message(LogLevel level, const char* file, int line, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 4, 5)))
#endif
    ;

}  // namespace isoee::util

#define ISOEE_LOG_AT(lvl, ...)                                              \
  do {                                                                      \
    if (static_cast<int>(lvl) >= static_cast<int>(::isoee::util::log_level())) \
      ::isoee::util::log_message(lvl, __FILE__, __LINE__, __VA_ARGS__);     \
  } while (0)

#define ISOEE_TRACE(...) ISOEE_LOG_AT(::isoee::util::LogLevel::kTrace, __VA_ARGS__)
#define ISOEE_DEBUG(...) ISOEE_LOG_AT(::isoee::util::LogLevel::kDebug, __VA_ARGS__)
#define ISOEE_INFO(...) ISOEE_LOG_AT(::isoee::util::LogLevel::kInfo, __VA_ARGS__)
#define ISOEE_WARN(...) ISOEE_LOG_AT(::isoee::util::LogLevel::kWarn, __VA_ARGS__)
#define ISOEE_ERROR(...) ISOEE_LOG_AT(::isoee::util::LogLevel::kError, __VA_ARGS__)
