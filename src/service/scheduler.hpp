// Simulation scheduler for the query service: admission control, request
// coalescing, and one FIFO host-thread budget shared by every request.
//
// The service's slow tier funnels every simulation-backed job through one of
// these. A job is a named bundle of exec::Cases plus a fold that reduces the
// case payloads to one result fragment. It runs on the thread that submits
// it (a TCP worker or the stdin loop), and the scheduler gives three
// guarantees:
//
//  * Coalescing — two jobs with the same key submitted while the first is
//    still in flight share a single execution (and a single set of
//    simulations); the duplicate submission gets the same shared future.
//    `Engine::total_runs_started()` is the observable: N identical concurrent
//    cold queries move it by exactly one job's worth.
//  * Admission — at most `max_pending` distinct jobs may be waiting or
//    running; beyond that, submit() rejects immediately (the caller maps this
//    to an `overloaded` error) instead of letting waiters pile up without
//    bound under a request flood.
//  * Budget — `jobs` host threads are shared by every request. A job waits
//    its turn for its width (the sum of its cases' `threads`, clamped to
//    [1, budget]) and holds it through its whole exec::run_batch, cache
//    probes included. Turns are granted strictly FIFO, as run_batch admits
//    its own cases, so a wide job is never starved by narrow ones behind it.
//
// Results are deterministic by construction: cases obey the executor's purity
// contract, so a job's folded payload is byte-identical no matter how jobs
// were coalesced or interleaved.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
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
  int jobs = 1;               // host-thread budget shared by all jobs (0 = all cores)
  int max_pending = 64;       // admission cap: waiting + running jobs
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

  /// Submits a job. `key` must be a complete content-address of the job (two
  /// jobs with equal keys must compute the same thing — coalescing depends on
  /// it). A job that is not coalesced or rejected runs on the calling thread,
  /// and submit() returns once its result is ready. A coalesced ticket's
  /// result becomes ready when the job it joined finishes. A throw from
  /// `fold` (or a failed case surfaced by it) becomes the future's exception.
  Ticket submit(const std::string& key, std::vector<exec::Case> cases,
                std::function<std::string(const std::vector<exec::CaseResult>&)> fold);

  exec::ResultCache& cache() { return cache_; }

 private:
  friend class SchedulerGate;

  /// Holds `width` threads of the budget for its lifetime. The constructor
  /// takes its place in line while `held` locks mu_, waits for its turn (turns
  /// come strictly in line order) and returns with `held` unlocked.
  class Turn {
   public:
    Turn(SimScheduler& scheduler, int width, std::unique_lock<std::mutex>& held);
    ~Turn();
    Turn(const Turn&) = delete;
    Turn& operator=(const Turn&) = delete;

   private:
    SimScheduler& scheduler_;
    int width_;
  };

  const int budget_;  // SchedulerConfig::jobs resolved: threads shared by every job
  const int max_pending_;
  exec::ResultCache cache_;

  std::mutex mu_;
  std::condition_variable turn_cv_;  // the head turn may fit, or moved on
  int pending_ = 0;  // waiting + running jobs (admission accounting)
  std::map<std::string, std::shared_future<Outcome>> inflight_;
  std::uint64_t next_turn_ = 0;  // handed to the next Turn constructed
  std::uint64_t head_turn_ = 0;  // the oldest turn not yet granted
  int in_use_ = 0;               // threads held by granted turns
};

/// Holds a scheduler's whole host-thread budget, so that jobs submitted
/// meanwhile wait for their turn. The first of N identical submissions then
/// registers as in flight and the other N-1 coalesce onto it before anything
/// can run, which makes coalescing checks deterministic instead of a race
/// against the first job finishing. The constructor returns once the budget
/// is held; release() (or the destructor) gives it back.
class SchedulerGate {
 public:
  explicit SchedulerGate(SimScheduler& scheduler);

  /// Gives the budget back. Idempotent.
  void release() { turn_.reset(); }

  /// Waits until `n` submissions (process-wide, the `service.coalesced`
  /// counter) have coalesced since the gate was built, or until `timeout`
  /// passes, then release()s. Returns whether all `n` coalesced in time.
  bool release_after_coalesced(std::uint64_t n, std::chrono::milliseconds timeout);

 private:
  std::optional<SimScheduler::Turn> turn_;
  std::uint64_t coalesced_before_ = 0;
};

}  // namespace isoee::service
