#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "sim/sched.hpp"
#include "util/log.hpp"

namespace isoee::sim {

double RunResult::mean_alpha() const {
  if (ranks.empty()) return 1.0;
  double sum = 0.0;
  for (const auto& r : ranks) sum += r.alpha;
  return sum / static_cast<double>(ranks.size());
}

// ---------------------------------------------------------------------------
// Worker-count resolution
// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_default_workers{0};

// ISOEE_ENGINE_WORKERS, read on each call: unset or empty is 0 (automatic);
// anything but a whole number in [0, 4096] throws, so a mistyped value cannot
// quietly run at the automatic width.
int env_engine_workers() {
  const char* s = std::getenv("ISOEE_ENGINE_WORKERS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || n < 0 || n > 4096) {
    throw std::invalid_argument("ISOEE_ENGINE_WORKERS must be a whole number in [0, 4096] (0 = "
                                "automatic), got '" + std::string(s) + "'");
  }
  return static_cast<int>(n);
}

}  // namespace

void set_default_engine_workers(int workers) {
  if (workers < 0) {
    throw std::invalid_argument("default engine workers must be >= 0 (0 = automatic)");
  }
  g_default_workers.store(workers, std::memory_order_relaxed);
}

int default_engine_workers() {
  return g_default_workers.load(std::memory_order_relaxed);
}

int auto_engine_workers(int nranks) {
  // Small jobs run fastest on one worker — a fiber switch is tens of
  // nanoseconds while a cross-worker wakeup is a cv round-trip — and
  // exec::Executor already parallelizes across cases. Only large jobs are
  // worth spreading over host cores.
  if (nranks < 256) return 1;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(static_cast<int>(std::min(hw, 8u)), nranks);
}

int resolve_engine_workers(int requested, int nranks) {
  if (requested < 0) {
    throw std::invalid_argument("engine workers must be >= 0 (0 = automatic)");
  }
  if (nranks < 1) nranks = 1;
  int w = requested;
  if (w == 0) w = default_engine_workers();
  if (w == 0) w = env_engine_workers();
  if (w == 0) w = auto_engine_workers(nranks);
  return std::clamp(w, 1, nranks);
}

// ---------------------------------------------------------------------------
// Run scratch
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_scratch_bytes_live{0};
}  // namespace

namespace detail {

/// The one scratch block of an Engine::run: allocated, uninitialized, by the
/// run's first RankCtx::scratch call and freed with the run. One block per
/// run, not one array per rank or per use: glibc raises its mmap and trim
/// thresholds to the largest chunk freed, so a block that is the run's whole
/// working set stays in the heap between runs of the same size instead of
/// being handed back to the OS and faulted in again. The block is aligned by
/// hand inside a plain operator new: glibc 2.36 handed an aligned operator
/// new of the same size back to the OS on every free.
class RunScratch {
 public:
  explicit RunScratch(int nranks) : nranks_(static_cast<std::size_t>(nranks)) {}
  RunScratch(const RunScratch&) = delete;
  RunScratch& operator=(const RunScratch&) = delete;

  ~RunScratch() {
    if (raw_ == nullptr) return;
    const std::size_t total = stride_ * nranks_;
    unpoison_region(block_, total);
    ::operator delete(raw_);
    g_scratch_bytes_live.fetch_sub(total, std::memory_order_relaxed);
  }

  /// Rank `rank`'s slice of `bytes`; the first call allocates the block.
  /// Ranks on different workers may race for that first call.
  std::byte* slice(int rank, std::size_t bytes) {
    const std::lock_guard lock(mu_);
    if (raw_ == nullptr) {
      bytes_ = bytes;
      stride_ = scratch_bytes<std::byte>(bytes);
      const std::size_t total = stride_ * nranks_;
      raw_ = static_cast<std::byte*>(::operator new(total + kScratchAlign - 1));
      block_ = raw_ + (kScratchAlign - reinterpret_cast<std::uintptr_t>(raw_) % kScratchAlign) %
                          kScratchAlign;
      g_scratch_bytes_live.fetch_add(total, std::memory_order_relaxed);
      for (std::size_t r = 0; r < nranks_; ++r) {
        poison_region(block_ + r * stride_ + bytes, stride_ - bytes);
      }
    } else if (bytes != bytes_) {
      throw std::logic_error("RankCtx::scratch: ranks of one run asked for different sizes");
    }
    return block_ + static_cast<std::size_t>(rank) * stride_;
  }

 private:
  std::mutex mu_;
  std::size_t nranks_;
  std::size_t bytes_ = 0;   // each slice's usable bytes
  std::size_t stride_ = 0;  // slice start to slice start
  std::byte* raw_ = nullptr;    // as allocated
  std::byte* block_ = nullptr;  // raw_ rounded up to kScratchAlign
};

}  // namespace detail

std::span<std::byte> RankCtx::scratch(std::size_t bytes) {
  if (scratch_taken_) throw std::logic_error("RankCtx::scratch: called twice by one rank");
  scratch_taken_ = true;
  return {scratch_->slice(rank_, bytes), bytes};
}

std::size_t Engine::scratch_bytes_live() {
  return g_scratch_bytes_live.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// RankCtx
// ---------------------------------------------------------------------------

RankCtx::RankCtx(Engine* engine, detail::FiberScheduler* sched, detail::RunScratch* scratch,
                 int rank, int size)
    : engine_(engine), sched_(sched), scratch_(scratch), rank_(rank), size_(size) {
  const auto& spec = engine_->machine();
  const auto& opts = engine_->options();
  ghz_ = opts.initial_ghz > 0.0 ? opts.initial_ghz : spec.cpu.base_ghz;
  if (!opts.per_rank_ghz.empty()) {
    ghz_ = opts.per_rank_ghz[static_cast<std::size_t>(rank) % opts.per_rank_ghz.size()];
  }
  // Seed noise per (machine seed, rank) so runs are reproducible and ranks
  // are decorrelated.
  std::uint64_t s = spec.noise.seed;
  (void)util::splitmix64(s);
  noise_rng_.reseed(s + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rank + 1));
  tracing_ = engine_->options().record_trace;
  obs_sink_ = opts.trace_sink != nullptr ? opts.trace_sink : obs::global_sink();
  // The perturbation RNG is deliberately separate from the noise RNG: its
  // draws only steer dispatch order, so enabling it cannot change any
  // virtual-time observable.
  perturbing_ = opts.perturb.enabled;
  if (perturbing_) {
    std::uint64_t ps = opts.perturb.seed;
    (void)util::splitmix64(ps);
    perturb_rng_.reseed(ps + 0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(rank + 1));
  }
}

void RankCtx::maybe_perturb() {
  if (!perturbing_) return;
  const auto& spec = engine_->options().perturb;
  if (perturb_rng_.uniform() >= spec.yield_probability) return;
  const std::uint64_t us =
      spec.max_sleep_us > 0
          ? perturb_rng_.below(static_cast<std::uint64_t>(spec.max_sleep_us) + 1)
          : 0;
  // Suspend and re-enqueue this rank `us` virtual microseconds later in
  // dispatch order: peers overtake it, no host time is burned, and the
  // virtual clock is untouched.
  sched_->maybe_yield(rank_, clock_, static_cast<std::uint32_t>(us));
}

const MachineSpec& RankCtx::machine() const { return engine_->machine(); }

void RankCtx::record_segment(double duration, Activity activity) {
  if (tracing_ && duration > 0.0) {
    trace_.push_back(Segment{clock_ - duration, duration, activity, ghz_});
  }
}

void RankCtx::advance(double seconds, Activity activity) {
  if (seconds <= 0.0) return;
  clock_ += seconds;
  time_.total = clock_;
  switch (activity) {
    case Activity::kCompute:
      if (compute_at_gear_ == nullptr) compute_at_gear_ = &time_.compute_by_ghz[ghz_];
      *compute_at_gear_ += seconds;
      time_.compute_issued += seconds;
      break;
    case Activity::kMemory:
      time_.memory_wall += seconds;
      break;
    case Activity::kNetwork:
      if (network_at_gear_ == nullptr) network_at_gear_ = &time_.network_by_ghz[ghz_];
      *network_at_gear_ += seconds;
      time_.network += seconds;
      break;
    case Activity::kIo:
      time_.io += seconds;
      break;
    case Activity::kIdle:
      time_.idle += seconds;
      break;
  }
  ++events_;
  record_segment(seconds, activity);
  if (obs_sink_ != nullptr) {
    obs::emit_span(*obs_sink_, rank_, "sim", activity_name(activity), clock_ - seconds,
                   seconds, {obs::arg_num("ghz", ghz_)});
  }
  if (engine_->options().on_segment) {
    engine_->options().on_segment(*this, Segment{clock_ - seconds, seconds, activity, ghz_});
  }
  maybe_perturb();
}

void RankCtx::compute(std::uint64_t instructions) {
  if (instructions == 0) return;
  const auto& spec = engine_->machine();
  double secs = static_cast<double>(instructions) * spec.cpu.t_c(ghz_);
  if (spec.noise.enabled) secs *= noise_rng_.jitter(spec.noise.compute_sigma);
  counters_.instructions += instructions;
  advance(secs, Activity::kCompute);
}

void RankCtx::memory(std::uint64_t accesses, std::uint64_t working_set_bytes) {
  if (accesses == 0) return;
  const auto& spec = engine_->machine();
  const double lat = working_set_bytes > 0 ? spec.mem.access_latency(working_set_bytes)
                                           : spec.mem.dram_latency_s;
  double secs = static_cast<double>(accesses) * lat;
  if (spec.noise.enabled) secs *= noise_rng_.jitter(spec.noise.memory_sigma);
  counters_.mem_accesses += accesses;
  time_.memory_issued += secs;
  advance(secs, Activity::kMemory);
}

void RankCtx::compute_mem(std::uint64_t instructions, std::uint64_t accesses,
                          std::uint64_t working_set_bytes) {
  if (instructions == 0) {
    memory(accesses, working_set_bytes);
    return;
  }
  if (accesses == 0) {
    compute(instructions);
    return;
  }
  const auto& spec = engine_->machine();
  double c_secs = static_cast<double>(instructions) * spec.cpu.t_c(ghz_);
  const double lat = working_set_bytes > 0 ? spec.mem.access_latency(working_set_bytes)
                                           : spec.mem.dram_latency_s;
  double m_secs = static_cast<double>(accesses) * lat;
  if (spec.noise.enabled) {
    c_secs *= noise_rng_.jitter(spec.noise.compute_sigma);
    m_secs *= noise_rng_.jitter(spec.noise.memory_sigma);
  }
  counters_.instructions += instructions;
  counters_.mem_accesses += accesses;

  // The overlap-capable fraction of the shorter side is hidden (prefetching /
  // out-of-order execution). Issued memory time is charged in full for
  // energy (the DRAM is busy for all of it); wall time shrinks.
  const double hidden = spec.mem_overlap * std::min(c_secs, m_secs);
  time_.memory_issued += m_secs;
  advance(c_secs, Activity::kCompute);
  advance(m_secs - hidden, Activity::kMemory);
}

void RankCtx::io(double seconds) {
  if (seconds <= 0.0) return;
  advance(seconds, Activity::kIo);
}

void RankCtx::disk_write(std::uint64_t bytes) {
  const auto& spec = engine_->machine();
  double secs = spec.disk.access_time(bytes);
  if (spec.noise.enabled) secs *= noise_rng_.jitter(spec.noise.io_sigma);
  counters_.io_operations += 1;
  counters_.io_bytes += bytes;
  advance(secs, Activity::kIo);
}

void RankCtx::idle(double seconds) {
  if (seconds <= 0.0) return;
  advance(seconds, Activity::kIdle);
}

double RankCtx::set_frequency(double ghz) {
  // Snap to the nearest available DVFS gear (ties go to the faster gear,
  // since gears are listed descending).
  const auto& gears = engine_->machine().cpu.gears_ghz;
  double chosen = gears.front();
  double best = std::abs(gears.front() - ghz);
  for (double g : gears) {
    const double d = std::abs(g - ghz);
    if (d < best) {
      best = d;
      chosen = g;
    }
  }
  if (chosen != ghz_) {
    if (obs_sink_ != nullptr) {
      obs::emit_instant(*obs_sink_, rank_, "sim", "dvfs", clock_,
                        {obs::arg_num("from_ghz", ghz_), obs::arg_num("to_ghz", chosen)});
    }
    ghz_ = chosen;
    compute_at_gear_ = nullptr;
    network_at_gear_ = nullptr;
    ++counters_.dvfs_transitions;
    ++events_;
  }
  return ghz_;
}

void RankCtx::send_bytes(int dst, int tag, std::span<const std::byte> payload) {
  if (dst < 0 || dst >= size_) throw std::out_of_range("send_bytes: bad destination rank");
  const auto& spec = engine_->machine();

  // Two-level topology: same-node messages (block placement) ride the
  // intra-node link when the network is hierarchical. On a flat network
  // startup()/per_byte() return the single inter-node pair for every message.
  const bool same_node = spec.same_node(rank_, dst);

  // Injection overhead charged to the sender.
  double ts = spec.net.startup(same_node);
  double per_byte = spec.net.per_byte(same_node);
  if (spec.noise.enabled) {
    const double j = noise_rng_.jitter(spec.noise.network_sigma);
    ts *= j;
    per_byte *= j;
  }
  const double inject_t0 = clock_;
  advance(ts, Activity::kNetwork);
  if (obs_sink_ != nullptr) {
    // Flow start anchored at the injection span's start so Perfetto binds the
    // arrow to the sender's Network slice.
    const std::uint64_t seq = flow_seq_out_[{dst, tag}]++;
    obs::emit_flow(*obs_sink_, /*begin=*/true, rank_, inject_t0,
                   obs::flow_id(rank_, dst, tag, seq));
  }

  const double arrival = clock_ + static_cast<double>(payload.size()) * per_byte;

  counters_.messages_sent += 1;
  counters_.bytes_sent += payload.size();
  ++events_;
  if (same_node) {
    counters_.messages_intra_node += 1;
    counters_.bytes_intra_node += payload.size();
  }
  sched_->deliver(dst, rank_, tag, arrival, payload);
}

void RankCtx::recv_into(int src, int tag, std::span<std::byte> out) {
  if (src < 0 || src >= size_) throw std::out_of_range("recv: bad source rank");
  // Perturb before blocking on the mailbox: a delayed receiver lets senders
  // race ahead, which is the interleaving that stresses tag-range recycling.
  maybe_perturb();
  const detail::FiberScheduler::Received got =
      sched_->take(rank_, src, tag, clock_, out);
  complete_recv(src, tag, got.arrival, got.bytes);
  if (got.bytes != out.size()) throw std::runtime_error("recv size mismatch");
}

void RankCtx::complete_recv(int src, int tag, double arrival, std::size_t bytes) {
  // Completion cannot precede the payload's arrival; the gap is receive wait.
  const double wait = std::max(0.0, arrival - clock_);
  advance(wait, Activity::kNetwork);
  if (obs_sink_ != nullptr) {
    const std::uint64_t seq = flow_seq_in_[{src, tag}]++;
    obs::emit_flow(*obs_sink_, /*begin=*/false, rank_, clock_,
                   obs::flow_id(src, rank_, tag, seq));
  }
  counters_.messages_received += 1;
  counters_.bytes_received += bytes;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {
// Engine-level metrics, absorbed into the process-wide registry (see
// src/obs/metrics.hpp). References are resolved once and cached: registry
// lookups take a mutex, increments are relaxed atomics.
struct EngineMetrics {
  obs::Counter& runs_started = obs::metrics().counter("sim.runs_started");
  obs::Counter& messages_sent = obs::metrics().counter("sim.messages_sent");
  obs::Counter& bytes_sent = obs::metrics().counter("sim.bytes_sent");
  obs::Counter& messages_intra_node = obs::metrics().counter("sim.messages_intra_node");
  obs::Counter& bytes_intra_node = obs::metrics().counter("sim.bytes_intra_node");
  obs::Counter& dvfs_transitions = obs::metrics().counter("sim.dvfs_transitions");
  obs::Histogram& run_makespan_s =
      obs::metrics().histogram("sim.run_makespan_s", obs::default_time_buckets_s());
  // Engine throughput (ISSUE 7): ranks and deterministic engine events
  // (timeline segments + messages sent + DVFS transitions) are exact sums —
  // identical for any worker count or --jobs value. rank_seconds_per_sec is
  // the one deliberately host-timing-dependent value in the registry: the
  // last run's simulated rank-seconds per host wall-clock second, the
  // headline number bench/engine_throughput tracks.
  obs::Counter& ranks_simulated = obs::metrics().counter("engine.ranks_simulated");
  obs::Counter& events_processed = obs::metrics().counter("engine.events_processed");
  obs::Gauge& rank_seconds_per_sec = obs::metrics().gauge("engine.rank_seconds_per_sec");
  // Mailbox high-water marks over every run in the process:
  // the most live (src, tag) channels one rank's mailbox held at once, and
  // the most idle payload bytes one rank's buffer pool kept. Exact for
  // one-worker runs; with more workers they depend on the host interleaving.
  obs::Gauge& mailbox_channels_max = obs::metrics().gauge("sim.mailbox_channels_max");
  obs::Gauge& mailbox_pool_bytes_max = obs::metrics().gauge("sim.mailbox_pool_bytes_max");
  // Payload bytes memcpy'd by deliveries and typed receives: one copy per
  // byte sent, plus one for each byte a typed receive took from the queue
  // rather than having delivered into its waiting buffer. Exact for
  // one-worker runs; with more workers it depends on the host interleaving.
  obs::Counter& payload_bytes_copied = obs::metrics().counter("sim.payload_bytes_copied");

  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};

// Registered at load time, so a snapshot from a process that never starts a
// simulation (a warm-cache rerun) still lists sim.runs_started and its
// siblings, at 0.
[[maybe_unused]] const EngineMetrics& registered_at_load = EngineMetrics::get();
}  // namespace

std::uint64_t Engine::total_runs_started() {
  return EngineMetrics::get().runs_started.value();
}

Engine::Engine(MachineSpec spec, Options opts) : spec_(std::move(spec)), opts_(opts) {
  if (const std::string err = spec_.validate(); !err.empty()) {
    throw std::invalid_argument("invalid MachineSpec: " + err);
  }
  if (opts_.workers < 0) {
    throw std::invalid_argument("EngineOptions::workers must be >= 0 (0 = automatic)");
  }
}

RunResult Engine::run(int nranks, const std::function<void(RankCtx&)>& body) {
  EngineMetrics::get().runs_started.inc();
  if (nranks <= 0) throw std::invalid_argument("run: nranks must be positive");
  if (nranks > spec_.total_cores()) {
    throw std::invalid_argument("run: nranks exceeds machine cores (" +
                                std::to_string(spec_.total_cores()) + ")");
  }

  const auto t0 = std::chrono::steady_clock::now();
  detail::FiberScheduler sched(nranks, resolve_engine_workers(opts_.workers, nranks));
  detail::RunScratch scratch(nranks);
  std::vector<std::unique_ptr<RankCtx>> contexts;
  contexts.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    contexts.push_back(
        std::unique_ptr<RankCtx>(new RankCtx(this, &sched, &scratch, r, nranks)));
  }
  const std::exception_ptr first_error =
      sched.run([&](int r) { body(*contexts[static_cast<std::size_t>(r)]); });
  EngineMetrics& m = EngineMetrics::get();
  m.mailbox_channels_max.set_max(static_cast<double>(sched.stats().channels_max));
  m.mailbox_pool_bytes_max.set_max(static_cast<double>(sched.stats().pool_bytes_max));
  m.payload_bytes_copied.inc(sched.stats().bytes_copied);
  if (first_error) std::rethrow_exception(first_error);

  RunResult result = aggregate(contexts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (wall > 0.0) {
    m.rank_seconds_per_sec.set(result.makespan * static_cast<double>(nranks) / wall);
  }
  return result;
}

RunResult Engine::aggregate(std::vector<std::unique_ptr<RankCtx>>& contexts) {
  const int nranks = static_cast<int>(contexts.size());

  // The job occupies its partition until the slowest rank finishes; ranks
  // that finish early draw idle power for the remainder (this is what a
  // PowerPack wall-plug measurement sees). Perturbation is switched off for
  // the padding: the schedule is over, there is nothing left to reorder.
  double makespan = 0.0;
  for (const auto& ctx : contexts) makespan = std::max(makespan, ctx->clock_);
  for (auto& ctx : contexts) {
    ctx->perturbing_ = false;
    const double pad = makespan - ctx->clock_;
    if (pad > 0.0) ctx->idle(pad);
  }

  RunResult result;
  result.ranks.reserve(static_cast<std::size_t>(nranks));
  if (opts_.record_trace) result.traces.reserve(static_cast<std::size_t>(nranks));
  std::uint64_t events = 0;
  for (auto& ctx : contexts) {
    RankResult rr;
    rr.time = ctx->time_;
    rr.counters = ctx->counters_;
    rr.energy = compute_energy(rr.time, spec_.power, spec_.cpu.base_ghz);
    rr.alpha = rr.time.alpha();
    result.makespan = std::max(result.makespan, rr.time.total);
    result.energy.merge(rr.energy);
    result.time.merge(rr.time);
    result.counters.merge(rr.counters);
    events += ctx->events_;
    if (opts_.record_trace) result.traces.push_back(std::move(ctx->trace_));
    result.ranks.push_back(std::move(rr));
  }

  EngineMetrics& m = EngineMetrics::get();
  m.messages_sent.inc(result.counters.messages_sent);
  m.bytes_sent.inc(result.counters.bytes_sent);
  m.messages_intra_node.inc(result.counters.messages_intra_node);
  m.bytes_intra_node.inc(result.counters.bytes_intra_node);
  m.dvfs_transitions.inc(result.counters.dvfs_transitions);
  m.run_makespan_s.observe(result.makespan);
  m.ranks_simulated.inc(static_cast<std::uint64_t>(nranks));
  m.events_processed.inc(events);
  return result;
}

}  // namespace isoee::sim
