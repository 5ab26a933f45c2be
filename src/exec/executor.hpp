// Batch case executor: one per process. It runs independent, deterministic
// simulation cases under one FIFO host-thread budget, lets a batch join a case
// another batch is already running, and caches results on disk. Results come
// back in submission order.
//
// Concurrency is budgeted in *host threads*, not cases. A simulated job costs
// its fiber-scheduler worker count — sim::resolve_engine_workers(0, nranks),
// typically 1 for the small jobs that dominate sweeps — NOT nranks, so a
// default budget admits many p=1024 cases concurrently. Simulation call sites
// declare `threads = resolve_engine_workers(...)`; non-engine work declares
// what it actually spawns.
//
// Batches and turns: each Executor::run call is one batch. Under one lock it
// registers every keyed case that is not already in flight, joins each one
// that is (its result is the registering run's), and takes its place in line.
// Turns are granted strictly in line order: a batch waits until every earlier
// batch has its turn and its width — the sum of its non-joined cases'
// `threads`, clamped to [1, budget] — fits in what is free. A wide batch is
// never starved by narrow ones behind it, and one wider than the whole budget
// runs alone instead of deadlocking. A batch whose every case joined takes no
// turn. Within its turn a batch admits its own cases in submission order
// while their summed cost fits the width; a cache probe happens inside the
// turn, so a warm batch still waits for it. The calling thread is worker 0,
// so a width of 1 starts no thread.
//
// No join can wait on a later batch: a batch joins only keys that earlier
// registrations own, those owners stand earlier in line, and a batch waits
// for its joins only after its own cases ran and its turn was given back. The
// earliest batch in line therefore waits on nothing, and every wait ends.
//
// Determinism contract: case bodies must be pure functions of their own
// inputs (per-case seeded RNG, no shared mutable state). Under that contract
// the result vector — order, payloads, errors — is bit-identical for every
// budget, serial included, and whether a case ran or joined; src/check
// asserts this for its whole sweep pipeline.
//
// Failure semantics: a case that throws has the exception text recorded in
// its slot (and in every slot that joined it); the batch keeps going. (A
// simulated rank that throws does not wedge its peers: the engine poisons all
// mailboxes on first error, so blocked ranks unwind with sim::RankAbandoned
// and the case returns.) Errors are never cached, and a key leaves the
// in-flight table when its batch finishes, so the next batch runs it again.
//
// Caching: a case may carry a content-address `cache_key`; on hit the stored
// payload is returned without running the case (zero simulations on a warm
// cache), on miss the case runs and its payload is stored.
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

#include "exec/cache.hpp"

namespace isoee::exec {

/// How a process executes batches, as carried by the bench/CLI flags --jobs
/// and --cache-dir.
struct ExecConfig {
  int jobs = 1;            // host-thread budget; 0 = hardware_concurrency, 1 = serial
  std::string cache_dir;   // empty = result caching off
  std::uint64_t cache_max_bytes = 0;  // on-disk cap, oldest pruned (0 = unbounded)
};

/// One independent unit of work. `run` produces the case's serialized result
/// payload; it is invoked at most once.
struct Case {
  int threads = 1;                    // host threads consumed while running
                                      // (engine jobs: resolved worker count)
  std::string cache_key;              // content address; empty = never cached
                                      // and never shared with another batch
  std::function<std::string()> run;
};

struct CaseResult {
  std::string payload;
  bool from_cache = false;
  std::string error;      // exception text; empty = completed normally

  bool ok() const { return error.empty(); }
};

/// Observability for one Executor::run.
struct BatchStats {
  int max_threads_in_use = 0;  // peak of sum(threads) over this batch's running cases
  std::uint64_t started = 0;   // cases this batch executed
  std::uint64_t cache_hits = 0;
  std::uint64_t joined = 0;    // cases whose key another run had in flight
};

class Executor {
 public:
  explicit Executor(const ExecConfig& config = {});
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs the batch and returns one result per case, in submission order.
  /// Throws std::logic_error when called from inside a case body: the
  /// enclosing batch holds the turn the nested one would wait for.
  std::vector<CaseResult> run(const std::vector<Case>& cases,
                              BatchStats* stats = nullptr);

  ResultCache& cache() { return cache_; }

 private:
  friend class BudgetGate;

  /// Holds `width` threads of the budget for its lifetime. The constructor
  /// takes its place in line while `held` locks mu_, waits for its turn (turns
  /// come strictly in line order) and returns with `held` unlocked.
  class Turn {
   public:
    Turn(Executor& executor, int width, std::unique_lock<std::mutex>& held);
    ~Turn();
    Turn(const Turn&) = delete;
    Turn& operator=(const Turn&) = delete;

   private:
    Executor& executor_;
    int width_;
  };

  /// Runs cases[i] for every i in `own` within a turn `width` threads wide.
  void run_own(const std::vector<Case>& cases, const std::vector<std::size_t>& own,
               int width, std::vector<CaseResult>& results, BatchStats& stats);

  const int budget_;  // ExecConfig::jobs resolved: threads shared by every batch
  ResultCache cache_;

  std::mutex mu_;
  std::condition_variable turn_cv_;  // the head turn may fit, or moved on
  std::uint64_t next_turn_ = 0;  // handed to the next Turn constructed
  std::uint64_t head_turn_ = 0;  // the oldest turn not yet granted
  int in_use_ = 0;               // threads held by granted turns
  int batches_ = 0;              // batches in line or running (exec.queue_depth)
  std::map<std::string, std::shared_future<CaseResult>> inflight_;
};

/// Holds an executor's whole host-thread budget, so that batches run
/// meanwhile wait for their turn. The first of N identical requests then
/// registers its key as in flight and the other N-1 join it before anything
/// can run, which makes coalescing checks deterministic instead of a race
/// against the first run finishing. The constructor returns once the budget
/// is held; release() (or the destructor) gives it back.
class BudgetGate {
 public:
  explicit BudgetGate(Executor& executor);

  /// Gives the budget back. Idempotent.
  void release() { turn_.reset(); }

  /// Waits until `n` cases (process-wide, the `exec.cases_joined` counter)
  /// have joined a run in flight since the gate was built, or until `timeout`
  /// passes, then release()s. Returns whether all `n` joined in time.
  bool release_after_joined(std::uint64_t n, std::chrono::milliseconds timeout);

 private:
  std::optional<Executor::Turn> turn_;
  std::uint64_t joined_before_ = 0;
};

}  // namespace isoee::exec
