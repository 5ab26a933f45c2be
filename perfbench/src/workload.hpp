// The benchmark's workloads. Each is a stream of rounds; a round is a fixed
// multiset of operations whose order and parameters the seed chooses, so
// every exact count (events, messages, instructions, service tiers) is the
// same for every round and every seed, and only host time may move.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace perfbench {

/// Process-wide failure log: counts failed operations and guard violations,
/// printing the first few messages to stderr.
void record_failure(const std::string& what);
/// Exact-count guard violation: two measurements of work that must repeat
/// exactly disagree, which means nondeterminism, never noise.
void record_guard_violation(const std::string& what);
bool guard_violated();

struct Env {
  const Expected* expected = nullptr;
  std::string work_dir;  // scratch space inside the checkout (caches)
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual int ops_per_round() const = 0;
  /// Rounds one run executes per second of --seconds. Sized on a 4-core
  /// x86-64 host so a run measures about --seconds; the count is fixed, so
  /// a faster program finishes the same work sooner.
  virtual double rounds_per_second() const = 0;

  /// Builds the stream for `rounds` rounds and warms the layers up (fiber
  /// stack pool, first-touch mailboxes, pre-warmed cache). Calling it again
  /// rebuilds everything from scratch.
  virtual void setup(std::uint64_t seed, int rounds) = 0;

  /// Executes rounds [first, first + count) of the stream, timing each
  /// operation and verifying its output.
  virtual void run(int first, int count, Pass& pass) = 0;

  /// Verification that is not on the timed path (numerics oracles, the
  /// in-process service reference). Returns the number of failed operations.
  virtual std::uint64_t verify() = 0;

  /// Per-layer metrics this workload owns, from a traced pass.
  virtual void layer_metrics(const Pass& traced, Metrics& out) = 0;

  /// Exact per-round counts of the last run() (checked round by round).
  Counts per_round{};
};

/// SystemG with measurement noise on: the machine every simulated workload
/// runs on.
isoee::sim::MachineSpec noisy_system_g();

SimOutcome outcome_of(const isoee::sim::RunResult& r, std::uint64_t events);

/// Runs a serial workload's simulations: times each one, checks its outputs
/// against the expected table, and guards exact counts round by round (a
/// round's registry deltas must equal the sum of its runs' counters, and
/// every round must equal the first).
class SerialRunner {
 public:
  SerialRunner(const Expected& expected, const char* workload)
      : expected_(expected), workload_(workload) {}

  /// Forgets the first round (after a new set-up).
  void reset() { have_round_ = false; }

  void begin_round();
  /// Times `run`, which performs one simulation and may report a wrong
  /// result through its argument, and records it under expected-table key
  /// `key` and span name `span`.
  void op(Pass& pass, const std::string& key, const char* span,
          const std::function<isoee::sim::RunResult(std::string& error)>& run);
  void end_round(Counts& per_round);

  std::uint64_t instructions() const { return first_.instructions; }
  std::uint64_t mem_accesses() const { return first_.mem_accesses; }

 private:
  const Expected& expected_;
  const char* workload_;
  Counts round_start_{};
  SimOutcome round_{};  // counts summed over the current round
  std::uint64_t round_runs_ = 0;
  SimOutcome first_{};
  bool have_round_ = false;
};

std::unique_ptr<Workload> make_kernels(const Env& env);
std::unique_ptr<Workload> make_collectives(const Env& env);
std::unique_ptr<Workload> make_service_mix(const Env& env);

/// p-vs-1 numerics oracle of one NPB kernel configuration (kernel 'F' FT,
/// 'E' EP, 'C' CG; class 'S' | 'W'): FT checksums within 1e-6, EP sums within
/// 1e-9 and exact counts, CG zeta within 1e-8 of the 1-rank result. Empty
/// when the check passes.
std::string check_numerics(const Expected& expected, char kernel, char cls, int p);

/// Record every expected-table entry a workload checks against
/// (perfbench --record-expected).
void record_kernels(Expected& out);
void record_collectives(Expected& out);
void record_service_mix(const Env& env, Expected& out);

/// Direct single-layer probes that need no workload stream: npb::fft1d,
/// empty engine runs and the per-call cost of each collective.
void layer_probes(std::uint64_t seed, Metrics& out);

}  // namespace perfbench
