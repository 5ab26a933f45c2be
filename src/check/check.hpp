// Sweep driver: generates N configs, runs the oracle on each, shrinks any
// failure, and reports coverage statistics so the caller can assert the sweep
// actually exercised what it promises (both topologies, every op, every
// registered collective algorithm).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/config.hpp"
#include "check/oracle.hpp"
#include "exec/executor.hpp"

namespace isoee::check {

struct SweepFailure {
  CheckConfig original;       // the generated config that failed
  CheckConfig shrunk;         // its minimized form
  std::string what;           // oracle description of the original failure
  std::string shrunk_repro;   // shrunk.repro(), the string to replay
};

struct SweepStats {
  int cases = 0;
  std::vector<SweepFailure> failures;

  // Coverage over the generated configs.
  std::map<std::string, int> cases_per_op;          // op name -> count
  std::map<std::string, int> cases_per_algorithm;   // "family/algo" -> count
  int flat_cases = 0;
  int hierarchical_cases = 0;
  int zero_byte_cases = 0;
  int perturbed_cases = 0;
  int tuned_cases = 0;
  std::uint64_t cache_hits = 0;      // cases answered from the result cache

  bool ok() const { return failures.empty(); }
  /// True when every registered algorithm of every collective family ran.
  bool covered_all_algorithms() const;
  std::string summary() const;

  /// Accumulates another chunk's stats (the wall-clock-budgeted soak driver
  /// runs the sweep in consecutive [start, start+count) chunks).
  void merge(const SweepStats& other);
};

struct SweepOptions {
  bool shrink_failures = true;
  int shrink_budget = 120;           // oracle calls per failure minimization
  int start = 0;                     // first case index (chunked soak runs)
  FaultInjection fault;              // test hook; defaults to no fault
};

/// Runs generated configs at indices [opts.start, opts.start + count) under
/// the oracle. Cases execute as one batch on `exec`; because every case —
/// oracle run and shrink included — is a pure function of its own config, the
/// returned stats, failures, and shrunk repros are byte-identical for every
/// budget.
SweepStats run_sweep(std::uint64_t seed, int count, exec::Executor& exec,
                     const SweepOptions& opts = {});

}  // namespace isoee::check
