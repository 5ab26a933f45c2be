#include "util/log.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace isoee::util {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::atomic<std::FILE*> g_sink{nullptr};
std::mutex g_write_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed)); }

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return LogLevel::kInfo;
}

void set_log_level_from_env() {
  if (const char* level = std::getenv("ISOEE_LOG"); level != nullptr && *level != '\0') {
    set_log_level(parse_log_level(level));
  }
}

void set_log_sink(std::FILE* sink) { g_sink.store(sink, std::memory_order_relaxed); }

void log_message(LogLevel level, const char* file, int line, const char* fmt, ...) {
  std::FILE* sink = g_sink.load(std::memory_order_relaxed);
  if (sink == nullptr) sink = stderr;

  // Strip directories from __FILE__ for readability.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }

  std::va_list args;
  va_start(args, fmt);
  {
    std::lock_guard<std::mutex> lock(g_write_mutex);
    std::fprintf(sink, "[%-5s] %s:%d: ", level_name(level), base, line);
    std::vfprintf(sink, fmt, args);
    std::fputc('\n', sink);
  }
  va_end(args);
}

}  // namespace isoee::util
