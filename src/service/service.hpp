// The iso-energy-efficiency what-if query service.
//
// A Service answers line-delimited JSON queries (see protocol.hpp and
// docs/SERVICE.md) about the paper's model: predicted time/energy/EE at an
// (n, p, f) operating point, calibration of a (machine, app) pair, operating-
// point optimization under power caps and deadlines, and iso-EE contours.
//
// Every answer flows through a three-tier path, cheapest first:
//
//   model  — closed-form evaluation of the analytical model (microseconds;
//            no simulation, no disk). Everything that only needs the fitted
//            coefficients lands here: predict, optimize, iso_contour.
//   cache  — the content-addressed exec::ResultCache: a simulation-backed
//            answer whose every case was already on disk. No simulation runs.
//   sim    — the request's cases run on the process's one exec::Executor, on
//            the requester's thread: admission-controlled (max_pending), a
//            case whose key another request is already running joins that
//            run so N identical in-flight queries cost one simulation, and
//            each batch waits its turn in the one FIFO host-thread budget
//            (--jobs).
//
// The response's `tier` field reports which tier actually answered.
//
// Determinism: for a fixed calibration state, every response line is
// byte-identical across reruns, connection interleavings, and --jobs
// settings — model-tier answers are pure arithmetic rendered with %.17g, and
// sim-backed payloads inherit the executor's bit-identical contract. (The
// `tier` and `coalesced` fields are the documented exception: whether a query
// found the cache warm depends on what raced ahead of it.)
//
// handle_line is thread-safe; connections call it concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "model/workloads.hpp"
#include "service/protocol.hpp"
#include "exec/executor.hpp"

namespace isoee::service {

struct ServiceConfig {
  int jobs = 1;               // host-thread budget for the simulation tier
  int max_pending = 64;       // admission cap: sim-tier requests waiting or running,
                              // those that joined another request's run included
  std::string cache_dir;      // warm tier ("" = no cache: cold queries simulate)
  std::uint64_t cache_max_bytes = 0;  // on-disk cap, oldest pruned (0 = unbounded)
};

class Service {
 public:
  explicit Service(ServiceConfig config);
  ~Service();

  /// Handles one request line, returning the response line (no trailing
  /// newline). Never throws: every failure renders as an error response.
  std::string handle_line(const std::string& line);

  /// Set once a `shutdown` request was handled; transports stop accepting.
  bool shutdown_requested() const { return shutdown_.load(); }

  /// The executor every simulation-backed request runs on.
  exec::Executor& executor() { return executor_; }

 private:
  struct Calibration {
    model::MachineParams machine;
    std::shared_ptr<const model::WorkloadModel> workload;
  };

  /// Runs a simulation-backed request's cases and folds their results.
  /// Reports which tier answered ("sim" when any case simulated, "cache"
  /// otherwise) and whether any case joined another request's run. Throws
  /// kOverloaded when max_pending sim-tier requests are already waiting or
  /// running, and kSimFailed when the fold throws.
  using Fold = std::function<std::string(const std::vector<exec::CaseResult>&)>;
  std::string run_job(const std::vector<exec::Case>& cases, const Fold& fold,
                      std::string* tier, bool* coalesced);
  std::string handle_predict(const Request& req, std::string* tier, bool* coalesced);
  std::string handle_calibrate(const Request& req, std::string* tier, bool* coalesced);
  std::string handle_optimize(const Request& req);
  std::string handle_iso_contour(const Request& req);
  std::string handle_install(const Request& req);
  std::string handle_stats();

  /// The (machine params, workload) pair a model-tier request evaluates:
  /// fitted state when `req.calibrated`, stock defaults otherwise. Throws
  /// kNotCalibrated when neither exists.
  Calibration resolve_model(const Request& req) const;
  /// Makes (machine, workload) the calibration `calibrated:true` selects.
  void install(const sim::MachineSpec& spec, const std::string& app,
               const model::MachineParams& machine, std::unique_ptr<model::WorkloadModel> workload);

  ServiceConfig config_;
  exec::Executor executor_;
  std::atomic<int> pending_{0};  // sim-tier requests waiting or running
  std::atomic<bool> shutdown_{false};

  mutable std::mutex cal_mu_;
  std::map<std::string, Calibration> calibrations_;  // key: spec name + '\x1f' + app
};

}  // namespace isoee::service
