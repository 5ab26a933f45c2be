// Simulation scheduler for the query service: admission control, request
// coalescing, and batched execution on the exec::run_batch pool.
//
// The service's slow tier funnels every simulation-backed job through one of
// these. A job is a named bundle of exec::Cases plus a fold that reduces the
// case payloads to one result fragment. The scheduler gives three guarantees:
//
//  * Coalescing — two jobs with the same key submitted while the first is
//    still in flight share a single execution (and a single set of
//    simulations); the duplicate submission gets the same shared future.
//    `Engine::total_runs_started()` is the observable: N identical concurrent
//    cold queries move it by exactly one job's worth.
//  * Admission — at most `max_pending` distinct jobs may be queued or
//    running; beyond that, submit() rejects immediately (the caller maps this
//    to an `overloaded` error) instead of letting the queue grow without
//    bound under a request flood.
//  * Batching — a single dispatcher thread drains every queued job per cycle
//    and hands their cases to ONE run_batch call, so concurrent requests
//    share the host-thread budget FIFO-fairly instead of oversubscribing the
//    machine with per-request pools.
//
// Results are deterministic by construction: cases obey the executor's purity
// contract, so a job's folded payload is byte-identical no matter how jobs
// were batched, coalesced, or interleaved.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.hpp"

namespace isoee::service {

/// What a finished job yields: the folded payload plus whether any case
/// actually simulated (false = every case was a warm cache hit, the "cache"
/// tier; true = the "sim" tier).
struct Outcome {
  std::string payload;
  bool simulated = false;
};

struct SchedulerConfig {
  int jobs = 1;               // host-thread budget per batch (0 = all cores)
  int max_pending = 64;       // admission cap: queued + running jobs
  std::string cache_dir;      // result cache shared by every job ("" = off)
  std::uint64_t cache_max_bytes = 0;
};

class SimScheduler {
 public:
  struct Ticket {
    std::shared_future<Outcome> result;  // invalid when rejected
    bool coalesced = false;              // shared an in-flight identical job
    bool rejected = false;               // admission control said no
  };

  explicit SimScheduler(const SchedulerConfig& config);
  ~SimScheduler();

  /// Submits a job. `key` must be a complete content-address of the job (two
  /// jobs with equal keys must compute the same thing — coalescing depends on
  /// it). `fold` runs on the dispatcher thread once every case finished; a
  /// throw from it (or a failed case surfaced by it) becomes the future's
  /// exception.
  Ticket submit(const std::string& key, std::vector<exec::Case> cases,
                std::function<std::string(const std::vector<exec::CaseResult>&)> fold);

  exec::ResultCache& cache() { return cache_; }

  /// Drains the queue and joins the dispatcher. Called by the destructor;
  /// idempotent.
  void stop();

 private:
  struct Job {
    std::string key;
    std::vector<exec::Case> cases;
    std::function<std::string(const std::vector<exec::CaseResult>&)> fold;
    std::shared_ptr<std::promise<Outcome>> promise;
  };

  void dispatch_loop();
  void run_jobs(std::vector<Job> jobs);

  SchedulerConfig config_;
  exec::ResultCache cache_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  int pending_ = 0;  // queued + running jobs (admission accounting)
  std::map<std::string, std::shared_future<Outcome>> inflight_;
  bool stopping_ = false;
  std::thread dispatcher_;
};

/// Holds a scheduler's dispatcher busy so that jobs submitted meanwhile queue
/// behind it. The first of N identical submissions then registers as in
/// flight and the other N-1 coalesce onto it before anything can run, which
/// makes coalescing checks deterministic instead of a race against the first
/// job finishing. The constructor returns once the gate job is running;
/// release() (or the destructor) lets the dispatcher go on.
class SchedulerGate {
 public:
  explicit SchedulerGate(SimScheduler& scheduler);
  ~SchedulerGate();

  SchedulerGate(const SchedulerGate&) = delete;
  SchedulerGate& operator=(const SchedulerGate&) = delete;

  /// Lets the gate job finish and waits for it. Idempotent.
  void release();

  /// Waits until `n` submissions (process-wide, the `service.coalesced`
  /// counter) have coalesced since the gate was built, or until `timeout`
  /// passes, then release()s. Returns whether all `n` coalesced in time.
  bool release_after_coalesced(std::uint64_t n, std::chrono::milliseconds timeout);

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool running = false;
    bool released = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
  std::shared_future<Outcome> done_;
  std::uint64_t coalesced_before_ = 0;
};

}  // namespace isoee::service
