// Virtual-time cluster simulator.
//
// Each simulated MPI rank runs as a stackful *fiber* with its own virtual
// clock, multiplexed over a small pool of host worker threads (sim/sched.hpp).
// Rank code is ordinary C++ calling RankCtx primitives:
//
//   ctx.compute(instr)        — advance clock by instr * CPI / f (t_c model)
//   ctx.memory(acc)           — advance clock by acc * t_m
//   ctx.compute_mem(i, a)     — fused region; part of the memory time is
//                               hidden under compute (emergent overlap alpha)
//   ctx.send_bytes / send / recv — Hockney-model messaging; recv copies
//                               into a buffer the caller owns
//   ctx.set_frequency(ghz)    — DVFS gear switch
//   ctx.scratch(bytes)        — this rank's slice of the run's one
//                               uninitialized working-set block
//
// Timing semantics (conservative, deterministic):
//   * send charges the sender t_s (injection) and stamps the message with a
//     departure time; the payload arrives at departure + bytes * t_w.
//   * recv completes at max(receiver clock, arrival); the gap is charged as
//     Network time (receive wait).
//   * Matching is FIFO per (source, tag); wildcards are not supported, which
//     keeps the simulation deterministic regardless of host scheduling.
//
// Those three properties are why the engine can parallelize a *single* large
// simulation across host cores and still be bit-exact: virtual clocks are
// strictly per rank, so no dispatch order the scheduler (or the worker count)
// chooses can change any virtual-time observable. EngineOptions::workers is
// purely a host-performance knob.
//
// Because messages carry real payload bytes, application kernels (FFT, CG...)
// compute real numerics and can be verified against reference results while
// the virtual clocks and power accounting produce the observables the
// iso-energy-efficiency model consumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/energy.hpp"
#include "sim/machine.hpp"
#include "sim/sanitizers.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace isoee::obs {
class TraceSink;
}

namespace isoee::sim {

namespace detail {
class FiberScheduler;
class RunScratch;
}

/// Alignment of every run scratch slice (RankCtx::scratch) and of every
/// array carve_scratch cuts from one.
inline constexpr std::size_t kScratchAlign = 64;

/// Unaddressable bytes after each slice and each carved array under ASan, so
/// an overrun from one into the next is reported; 0 otherwise.
#if defined(ISOEE_ASAN)
inline constexpr std::size_t kScratchRedzone = 64;
#else
inline constexpr std::size_t kScratchRedzone = 0;
#endif

/// Bytes carve_scratch<T>(count) takes from a slice: the array rounded up to
/// kScratchAlign, plus the redzone.
template <typename T>
constexpr std::size_t scratch_bytes(std::size_t count) {
  return (count * sizeof(T) + kScratchAlign - 1) / kScratchAlign * kScratchAlign +
         kScratchRedzone;
}

/// Cuts an uninitialized array of `count` T's off the front of `slice` and
/// advances `slice` past it by scratch_bytes<T>(count). Throws
/// std::length_error when the slice is too short.
template <typename T>
std::span<T> carve_scratch(std::span<std::byte>& slice, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= kScratchAlign);
  const std::size_t bytes = scratch_bytes<T>(count);
  if (bytes > slice.size()) throw std::length_error("carve_scratch: slice too short");
  // Scratch memory comes from operator new, which implicitly creates the
  // trivially copyable T's the caller then writes.
  T* first = reinterpret_cast<T*>(slice.data());
  poison_region(slice.data() + count * sizeof(T), bytes - count * sizeof(T));
  slice = slice.subspan(bytes);
  return {first, count};
}

class Engine;

/// Thrown out of a blocking receive when a *peer* rank died: the first rank
/// to throw poisons every mailbox, so ranks blocked waiting on it unwind with
/// this instead of deadlocking forever. Engine::run still rethrows the first
/// (root-cause) error, never the abandonment itself.
class RankAbandoned : public std::runtime_error {
 public:
  RankAbandoned() : std::runtime_error("rank abandoned: a peer rank failed") {}
};

/// Outcome of one rank's simulated execution.
struct RankResult {
  TimeBreakdown time;
  RankCounters counters;
  EnergyBreakdown energy;
  double alpha = 1.0;  // measured overlap factor (Section VI.F)
};

/// Outcome of a whole simulated job.
struct RunResult {
  std::vector<RankResult> ranks;
  double makespan = 0.0;         // max final virtual clock over ranks
  EnergyBreakdown energy;        // sum over ranks
  TimeBreakdown time;            // sum over ranks (issued times add up)
  RankCounters counters;         // sum over ranks

  /// Per-rank timeline segments; only populated when Options::record_trace.
  std::vector<std::vector<Segment>> traces;

  double total_energy_j() const { return energy.total; }
  /// Mean measured overlap factor over ranks.
  double mean_alpha() const;
};

/// Handle given to rank bodies; all simulation primitives live here.
class RankCtx {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }
  double now() const { return clock_; }
  const MachineSpec& machine() const;

  // --- computation / memory -------------------------------------------------
  /// Executes `instructions` on-chip instructions at the current gear.
  void compute(std::uint64_t instructions);

  /// Performs `accesses` off-chip memory accesses. If `working_set_bytes` is
  /// nonzero the per-access latency follows the cache-hierarchy curve;
  /// otherwise the DRAM latency (the model's t_m) is charged.
  void memory(std::uint64_t accesses, std::uint64_t working_set_bytes = 0);

  /// Fused compute+memory region: the machine's mem_overlap fraction of the
  /// shorter side is hidden, modelling out-of-order/prefetch overlap.
  void compute_mem(std::uint64_t instructions, std::uint64_t accesses,
                   std::uint64_t working_set_bytes = 0);

  /// Flat I/O access of the given duration (paper's simple T_io model).
  void io(double seconds);

  /// Disk access of `bytes` through the machine's DiskSpec (latency +
  /// bandwidth), charged as Io activity with the io-noise jitter.
  void disk_write(std::uint64_t bytes);

  /// Advances the clock with no component active (explicit idle).
  void idle(double seconds);

  // --- DVFS ------------------------------------------------------------------
  /// Switches to the closest available gear <= requested (clamped to range).
  /// Returns the gear actually selected.
  double set_frequency(double ghz);
  double frequency() const { return ghz_; }

  // --- messaging ---------------------------------------------------------
  /// Eager send: never blocks; charges t_s to this rank.
  void send_bytes(int dst, int tag, std::span<const std::byte> payload);

  /// Typed send/recv of a span of trivially copyable values. recv blocks
  /// until the next message on (src, tag) arrives (FIFO per channel) and
  /// copies it into the caller's `out`; a payload of another size throws
  /// after the message is consumed.
  template <typename T>
  void send(int dst, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, std::as_bytes(values));
  }
  template <typename T>
  void recv(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_into(src, tag, std::as_writable_bytes(out));
  }

  // --- run scratch ----------------------------------------------------------
  /// This rank's slice of the run's one scratch block: `bytes` uninitialized
  /// bytes, kScratchAlign-aligned, disjoint from every other rank's slice
  /// (split it with carve_scratch). The run's first call allocates the block
  /// for all size() ranks. Every rank calls once, with the same `bytes`; a
  /// second call or a different size throws std::logic_error. The block is
  /// freed when Engine::run returns, also when a rank throws.
  std::span<std::byte> scratch(std::size_t bytes);

  // --- introspection ------------------------------------------------------
  const RankCounters& counters() const { return counters_; }
  const TimeBreakdown& time() const { return time_; }

  /// The trace sink observing this rank (EngineOptions::trace_sink, else the
  /// process-global sink, else nullptr), resolved once at rank construction.
  /// Instrumentation layers above the engine (smpi spans, phase markers, the
  /// governor) emit their events through this.
  obs::TraceSink* trace_sink() const { return obs_sink_; }

 private:
  friend class Engine;
  RankCtx(Engine* engine, detail::FiberScheduler* sched, detail::RunScratch* scratch, int rank,
          int size);

  void advance(double seconds, Activity activity);
  /// The receive behind recv (throws if the payload size differs). A message
  /// that arrives while this waits is copied straight into `out`; one that
  /// was queued is copied out of its pooled buffer, which goes back to the
  /// pool.
  void recv_into(int src, int tag, std::span<std::byte> out);
  /// The receive's clock, flow event and counters, once a message is taken.
  void complete_recv(int src, int tag, double arrival, std::size_t bytes);
  void record_segment(double duration, Activity activity);
  void maybe_perturb();

  Engine* engine_;
  detail::FiberScheduler* sched_;  // the run's scheduler: mailboxes and yields
  detail::RunScratch* scratch_;    // the run's scratch block (RankCtx::scratch)
  bool scratch_taken_ = false;
  int rank_;
  int size_;
  double clock_ = 0.0;
  double ghz_ = 0.0;
  TimeBreakdown time_;
  // time_.compute_by_ghz[ghz_], resolved on the first compute at this gear
  // and reset by set_frequency: advance skips the map lookup. std::map
  // references survive insertion, and no entry is made for a gear that
  // never computes.
  double* compute_at_gear_ = nullptr;
  double* network_at_gear_ = nullptr;  // time_.network_by_ghz[ghz_], likewise
  RankCounters counters_;
  util::Xoshiro256 noise_rng_;
  util::Xoshiro256 perturb_rng_;
  bool perturbing_ = false;
  std::vector<Segment> trace_;
  bool tracing_ = false;
  obs::TraceSink* obs_sink_ = nullptr;
  // Deterministic engine-event count for this rank (timeline segments +
  // messages sent + DVFS transitions). Deliberately *not* part of
  // RankCounters — that struct's layout is serialized into exec::ResultCache
  // payloads — but summed into the engine.events_processed metric.
  std::uint64_t events_ = 0;
  // Per-channel message ordinals for flow-event ids (only touched when a
  // sink is installed). Keys: (peer, tag).
  std::map<std::pair<int, int>, std::uint64_t> flow_seq_out_;
  std::map<std::pair<int, int>, std::uint64_t> flow_seq_in_;
};

/// Scheduler-order perturbation (off by default). When enabled, every rank
/// sprinkles seeded random reorderings between simulation primitives, forcing
/// adversarial interleavings: senders race whole collectives ahead of lagging
/// receivers (stressing mailbox buildup and the TagAllocator recycling
/// window) and composite collectives interleave across ranks in orders a
/// quiet schedule never produces.
///
/// A perturbation suspends the rank's fiber and re-enqueues it with its
/// dispatch key pushed up to max_sleep_us *virtual* microseconds later — a
/// pure scheduler reordering with no host sleeps, so perturbed runs cost the
/// same as quiet ones. Virtual time derives only from simulated activity —
/// never from dispatch order or the host clock — so a perturbed run must
/// produce bit-identical results to an unperturbed one; src/check asserts
/// exactly that.
struct PerturbSpec {
  bool enabled = false;
  std::uint64_t seed = 0x7e57ab1eULL;  // drives the per-rank perturbation RNG
  double yield_probability = 0.2;      // chance to disturb at each primitive
  int max_sleep_us = 50;               // reorder horizon (0 = bare yield)
};

/// Resolves an EngineOptions::workers request to a concrete worker count for
/// an nranks-rank job: explicit requests are clamped to [1, nranks]; 0 defers
/// to set_default_engine_workers(), then the ISOEE_ENGINE_WORKERS environment
/// variable (read on each call), then auto_engine_workers(). A negative
/// request, or a variable that is not a whole number in [0, 4096], throws
/// std::invalid_argument.
int resolve_engine_workers(int requested, int nranks);

/// The automatic policy: 1 worker for small jobs (nranks < 256), where fiber
/// switching beats cv traffic; min(hardware threads, 8, nranks) for large ones.
int auto_engine_workers(int nranks);

/// Process-wide default for EngineOptions::workers == 0 (0 = automatic).
/// Overrides the ISOEE_ENGINE_WORKERS environment variable; CLI layers (e.g.
/// bench --engine-workers) call this once at startup. A negative value throws
/// std::invalid_argument.
void set_default_engine_workers(int workers);
int default_engine_workers();

/// Engine construction options.
struct EngineOptions {
  bool record_trace = false;  // keep per-rank Segment timelines (Fig 10)
  double initial_ghz = 0.0;   // 0 -> machine base frequency

  /// DVFS-heterogeneous partitions: when non-empty, rank r starts at
  /// per_rank_ghz[r % size()] (snapped to a gear). Overrides initial_ghz.
  /// Used to validate the heterogeneous model extension (model/hetero.hpp).
  std::vector<double> per_rank_ghz;

  /// Host worker threads multiplexing the rank fibers.
  /// 0 = resolve automatically (see resolve_engine_workers); negative values
  /// are rejected. Any valid value gives bit-identical results; this knob
  /// trades host cores for wall-clock.
  int workers = 0;

  /// Scheduler-order perturbation injector (see PerturbSpec). Simulation
  /// results are independent of it by construction; it exists to let tests
  /// stress determinism under adversarial dispatch interleavings.
  PerturbSpec perturb;

  /// Streaming segment observer, invoked on the rank's own execution context
  /// immediately after every timeline segment completes (independently of
  /// record_trace). This is the sensor feed for online controllers (powerpack
  /// streaming sampler -> governor): the observer may call
  /// ctx.set_frequency() to react, but must not invoke clock-advancing
  /// primitives (compute/memory/io/send/recv) — the rank is mid-primitive
  /// when it fires.
  std::function<void(RankCtx&, const Segment&)> on_segment;

  /// Per-engine trace sink (see src/obs): when set, every rank emits segment
  /// spans, pt2pt flow events, and DVFS instants into it; layers above add
  /// collective/phase/governor events. Overrides obs::global_sink() for this
  /// engine. The sink must be thread-safe and outlive the run. Null (the
  /// default) with no global sink installed keeps the hot path at a single
  /// pointer check per primitive.
  obs::TraceSink* trace_sink = nullptr;
};

/// Simulator engine: owns the machine description and runs jobs.
class Engine {
 public:
  using Options = EngineOptions;

  explicit Engine(MachineSpec spec, Options opts = Options());

  /// Runs `body` on `nranks` simulated ranks to completion and returns
  /// aggregated results. Throws if nranks exceeds the machine's cores or if
  /// any rank body throws.
  RunResult run(int nranks, const std::function<void(RankCtx&)>& body);

  const MachineSpec& machine() const { return spec_; }
  const Options& options() const { return opts_; }

  /// Process-wide count of Engine::run invocations. Tests use the delta to
  /// assert that a warm result cache executes zero simulations.
  static std::uint64_t total_runs_started();

  /// Process-wide bytes of run scratch blocks not yet freed. Tests assert
  /// that every run, failed or not, frees its block.
  static std::size_t scratch_bytes_live();

 private:
  RunResult aggregate(std::vector<std::unique_ptr<RankCtx>>& contexts);

  MachineSpec spec_;
  Options opts_;
};

}  // namespace isoee::sim
