// Sampling host-time profiler for the fiber scheduler (sim/sched).
//
// Virtual-time traces (obs/trace) say where *simulated* time goes; this says
// where *host* time goes inside the scheduler itself. Each scheduler worker
// registers a WorkerHandle and publishes its current phase — one of
// {fiber_run, mailbox_wait, heap_dispatch, idle} plus the running rank for
// fiber_run — as a single packed atomic word. A background sampler thread
// wakes every `interval_us` of steady-clock time and attributes one sample
// per registered worker to (worker, phase, rank). No signals are involved, so
// the design is portable and TSan-clean; accuracy is statistical, which is
// all a flamegraph needs.
//
// Overhead contract: when the profiler is disabled no handles are engaged, so
// every instrumentation point in the scheduler reduces to one branch on a
// null pointer — the same envelope as tracing, gated by
// `micro_sim --check-obs-overhead` (<2%). When enabled, the cost is one
// relaxed atomic store per phase change plus the sampler thread.
//
// Output: `collapsed()` renders semicolon-delimited collapsed-stack lines
// (`isoee_engine;worker_0;fiber_run;rank_12 345`) — the format consumed by
// flamegraph.pl / speedscope and validated by `trace_stats --flame`. Per
// (worker, fiber_run) the top `top_ranks` ranks by sample count are kept and
// the remainder folds into `rank_other`; lines are sorted lexicographically,
// so output is stable for a given set of counts.
//
// Determinism: sample counts depend on host timing and are NOT reproducible
// run-to-run; nothing in the simulation reads them, so simulated results stay
// byte-identical with the profiler on. Tests use the `sample_now()` seam to
// take synchronous samples instead of relying on the sampler thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace isoee::obs {

enum class SchedPhase : std::uint32_t {
  kIdle = 0,          // registered, between activities
  kHeapDispatch = 1,  // popping the ready heap / virtual-clock bookkeeping
  kFiberRun = 2,      // executing a rank fiber (rank attached)
  kMailboxWait = 3,   // blocked on the worker inbox condition variable
};

/// Stable lowercase name used in collapsed-stack frames.
const char* sched_phase_name(SchedPhase ph);

class SchedProfiler {
 public:
  /// The process-wide profiler the scheduler hooks into.
  static SchedProfiler& global();

  struct Options {
    std::uint64_t interval_us = 500;  // sampling period (steady clock)
    int top_ranks = 20;               // per-worker fiber_run ranks kept in collapsed()
  };

  SchedProfiler() = default;
  /// Stops the sampler. Outstanding WorkerHandles must not outlive the
  /// profiler (the global() instance is never destroyed).
  ~SchedProfiler();

  /// Starts sampling. No-op if already running. `interval_us` is clamped to
  /// >= 50 to keep a misconfigured interval from busy-spinning.
  void start(Options opts);
  void start() { start(Options{}); }
  /// Stops and joins the sampler thread; counts are retained.
  void stop();
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Published state of one scheduler worker. Default-constructed handles are
  /// disengaged: set_phase is a single branch and no sample is attributed.
  class WorkerHandle {
   public:
    WorkerHandle() = default;
    WorkerHandle(WorkerHandle&& other) noexcept { *this = std::move(other); }
    WorkerHandle& operator=(WorkerHandle&& other) noexcept;
    WorkerHandle(const WorkerHandle&) = delete;
    WorkerHandle& operator=(const WorkerHandle&) = delete;
    ~WorkerHandle() { release(); }

    void set_phase(SchedPhase ph, int rank = -1) noexcept;
    bool engaged() const { return prof_ != nullptr; }
    /// Deactivates the slot; the handle becomes disengaged.
    void release() noexcept;

   private:
    friend class SchedProfiler;
    SchedProfiler* prof_ = nullptr;
    std::size_t slot_ = 0;
  };

  /// Registers worker `worker_index` and returns its engaged handle. Call
  /// only while enabled(); a disabled profiler returns a disengaged handle.
  WorkerHandle register_worker(int worker_index);

  struct Row {
    int worker = 0;
    SchedPhase phase = SchedPhase::kIdle;
    int rank = -1;  // >= 0 only for fiber_run
    std::uint64_t samples = 0;
  };

  /// All attributed samples, sorted by (worker, phase, rank).
  std::vector<Row> report() const;
  std::uint64_t total_samples() const;

  /// Collapsed-stack text; `top_ranks` <= 0 uses the started Options value.
  std::string collapsed(int top_ranks = 0) const;
  bool write_collapsed(const std::string& path, int top_ranks = 0) const;

  /// Test seam: attribute one sample per active worker synchronously, exactly
  /// as one sampler wakeup would.
  void sample_now();

  /// Drops all counts (registered workers stay registered).
  void reset();

  SchedProfiler(const SchedProfiler&) = delete;
  SchedProfiler& operator=(const SchedProfiler&) = delete;

 private:
  // active(1) << 63 | phase(8) << 32 | (rank + 1) as uint32
  struct Slot {
    std::atomic<std::uint64_t> state{0};
    int worker_index = 0;
  };
  static std::uint64_t pack(bool active, SchedPhase ph, int rank);

  void sampler_loop();
  void sample_locked();  // caller holds counts_mu_

  std::atomic<bool> enabled_{false};
  Options opts_{};
  std::thread sampler_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  mutable std::mutex reg_mu_;  // slot registration / freelist
  std::deque<Slot> slots_;     // deque: grows without moving elements
  std::vector<std::size_t> free_slots_;

  mutable std::mutex counts_mu_;
  std::map<std::tuple<int, std::uint32_t, int>, std::uint64_t> counts_;
  std::uint64_t total_samples_ = 0;
};

/// Shorthand for SchedProfiler::global().
SchedProfiler& sched_profiler();

}  // namespace isoee::obs
