// Test helpers that set the fiber-engine width for a scope.
//
// The width is a process-wide override (sim::set_default_engine_workers), so
// a test that needs a width sets it with EngineWidth and gets the previous
// override back when the scope ends. The override beats ISOEE_ENGINE_WORKERS:
// a test pinned to one worker still runs at one under a forced multi-worker
// environment. EngineWorkersEnv does the same for the variable itself.
#pragma once

#include <cstdlib>
#include <string>

#include "sim/engine.hpp"

namespace isoee::test {

class EngineWidth {
 public:
  explicit EngineWidth(int workers) : saved_(sim::set_default_engine_workers(workers)) {}
  ~EngineWidth() { sim::set_default_engine_workers(saved_); }
  EngineWidth(const EngineWidth&) = delete;
  EngineWidth& operator=(const EngineWidth&) = delete;

 private:
  int saved_;
};

/// Sets ISOEE_ENGINE_WORKERS (nullptr unsets it) and restores it at scope end.
class EngineWorkersEnv {
 public:
  explicit EngineWorkersEnv(const char* value) {
    const char* s = std::getenv("ISOEE_ENGINE_WORKERS");
    had_ = s != nullptr;
    if (had_) saved_ = s;
    set(value);
  }
  ~EngineWorkersEnv() { set(had_ ? saved_.c_str() : nullptr); }
  EngineWorkersEnv(const EngineWorkersEnv&) = delete;
  EngineWorkersEnv& operator=(const EngineWorkersEnv&) = delete;

  static void set(const char* value) {
    if (value == nullptr) {
      unsetenv("ISOEE_ENGINE_WORKERS");
    } else {
      setenv("ISOEE_ENGINE_WORKERS", value, 1);
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

}  // namespace isoee::test
