// Batch case executor: runs independent, deterministic simulation cases on a
// bounded pool with results delivered in submission order.
//
// Concurrency is budgeted in *host threads*, not cases. A simulated job costs
// its fiber-scheduler worker count — sim::resolve_engine_workers(0, nranks),
// typically 1 for the small jobs that dominate sweeps — NOT nranks, so a
// default budget admits many p=1024 cases concurrently. Simulation call sites
// declare `threads = resolve_engine_workers(...)`; non-engine work declares
// what it actually spawns. The pool admits cases while sum(threads) of the running
// set stays within the budget (default: hardware_concurrency). Admission is
// strictly FIFO — the next case in submission order is admitted as soon as
// its cost fits — which bounds memory, avoids starving wide cases, and keeps
// the wall-clock profile reproducible. A case wider than the whole budget
// runs alone (its cost clamps to the budget) instead of deadlocking.
//
// Determinism contract: case bodies must be pure functions of their own
// inputs (per-case seeded RNG, no shared mutable state). Under that contract
// the result vector — order, payloads, errors — is bit-identical for every
// budget, serial included; src/check asserts this for its whole sweep
// pipeline. The executor provides `case_seed` to derive decorrelated per-case
// seeds from one root seed.
//
// Failure semantics: a case that throws has the exception text recorded in
// its slot; the batch keeps going unless `fail_fast` is set, in which case
// every case not yet admitted is marked `skipped`. Cases already running
// always complete. (A simulated rank that throws no longer wedges its peers:
// the engine poisons all mailboxes on first error, so blocked ranks unwind
// with sim::RankAbandoned and the case returns instead of deadlocking the
// pool slot forever.)
//
// Caching: a case may carry a content-address `cache_key`; on hit the stored
// payload is returned without admitting the case at all (zero simulations on
// a warm cache), on miss the case runs and its payload is stored. Errors and
// skips are never cached.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/cache.hpp"

namespace isoee::exec {

/// Shared "how to execute batches" knobs, as carried by the bench/CLI flags
/// --jobs and --cache-dir.
struct ExecConfig {
  int jobs = 1;            // host-thread budget; 0 = hardware_concurrency, 1 = serial
  std::string cache_dir;   // empty = result caching off
  std::uint64_t cache_max_bytes = 0;  // on-disk cap, oldest pruned (0 = unbounded)

  bool parallel() const { return jobs != 1; }
};

/// One independent unit of work. `run` produces the case's serialized result
/// payload; it is invoked at most once.
struct Case {
  int threads = 1;                    // host threads consumed while running
                                      // (engine jobs: resolved worker count)
  std::string cache_key;              // content address; empty = never cached
  std::function<std::string()> run;
};

struct CaseResult {
  std::string payload;
  bool from_cache = false;
  bool skipped = false;   // cancelled by fail_fast before being admitted
  std::string error;      // exception text; empty = completed normally

  bool ok() const { return error.empty() && !skipped; }
};

/// Aggregate batch observability (all fields are totals for one run_batch).
struct BatchStats {
  int max_threads_in_use = 0;  // peak of sum(threads) over running cases
  std::uint64_t started = 0;   // cases actually executed
  std::uint64_t cache_hits = 0;
  std::uint64_t skipped = 0;
};

struct BatchOptions {
  /// Host-thread budget; 0 means std::thread::hardware_concurrency().
  int thread_budget = 0;

  /// Cancel every not-yet-admitted case after the first failure. A case fails
  /// when it throws or when `is_failure` returns true for its result.
  bool fail_fast = false;
  std::function<bool(const CaseResult&)> is_failure;

  ResultCache* cache = nullptr;  // optional; see Case::cache_key
  BatchStats* stats = nullptr;   // optional observability out-param
};

/// The host-thread budget `requested` stands for: itself when positive,
/// otherwise std::thread::hardware_concurrency() (at least 1).
int resolve_budget(int requested);

/// Runs the batch and returns one result per case, in submission order.
std::vector<CaseResult> run_batch(const std::vector<Case>& cases,
                                  const BatchOptions& opts = {});

/// Derives a decorrelated per-case seed from a root seed and the case index
/// (splitmix64 of the pair), so no two cases ever share a generator stream.
std::uint64_t case_seed(std::uint64_t root_seed, std::uint64_t index);

}  // namespace isoee::exec
