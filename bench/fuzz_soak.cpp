// Long-running property soak over the src/check harness, for nightly CI.
//
// Generates --cases random configs from --seed and runs the full differential
// + metamorphic oracle on each (the tier-1 `ctest -R check_sweep` runs the
// same pipeline, bounded at 200 configs). Every failure is minimized by the
// greedy shrinker; the shrunk repro strings are printed, written to
// <csv-dir>/fuzz_soak_failures.csv (CI uploads it as an artifact), and the
// process exits nonzero so the job fails loudly.
//
// Replay a failure locally with:
//
//   build/bench/fuzz_soak --repro='op=allgather,machine=systemg,topo=flat,...'
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "check/config.hpp"
#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace isoee;

int replay(const std::string& text) {
  check::CheckConfig cfg;
  try {
    cfg = check::CheckConfig::from_repro(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad --repro string: %s\n", e.what());
    return 2;
  }
  std::printf("replaying %s\n", cfg.repro().c_str());
  if (const auto failure = check::check_case(cfg)) {
    std::printf("FAIL: %s\n", failure->c_str());
    return 1;
  }
  std::printf("OK: every property held\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("randomized property soak over src/check (nightly CI driver)");
  cli.no_positional()
      .flag("seed", "1", "sweep seed (CI passes a date-derived value)")
      .flag("cases", "2000", "number of generated configs to check")
      .flag("repro", "", "replay one repro string instead of sweeping")
      .flag("shrink-budget", "200", "oracle runs spent minimizing each failure")
      .flag("csv-dir", "bench_out", "directory for the failure-artifact CSV")
      .flag("jobs", "1", "host-thread budget (1 = serial, 0 = all cores)")
      .flag("cache-dir", "", "result-cache directory (empty = caching off)")
      .flag("budget-seconds", "0",
            "wall-clock budget; 0 = run exactly --cases, otherwise run "
            "--chunk-sized sweeps until the budget is spent")
      .flag("chunk", "200", "cases per chunk under --budget-seconds");
  if (!cli.parse(argc, argv)) return 1;

  const std::string repro = cli.get("repro");
  if (!repro.empty()) return replay(repro);

  std::uint64_t seed = 0;
  int cases = 0, jobs = 0, chunk = 0;
  long long budget_s = 0;
  check::SweepOptions opts;
  try {
    seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    cases = static_cast<int>(cli.get_int("cases"));
    opts.shrink_budget = static_cast<int>(cli.get_int("shrink-budget"));
    jobs = static_cast<int>(cli.get_int("jobs"));
    budget_s = cli.get_int("budget-seconds");
    chunk = static_cast<int>(cli.get_int("chunk"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fuzz_soak: %s\n", e.what());
    return 1;
  }
  exec::Executor executor({jobs, cli.get("cache-dir"), 0});

  check::SweepStats stats;
  if (budget_s > 0) {
    // Wall-clock-budgeted mode: sweep consecutive chunks of the same seeded
    // case sequence until the budget runs out. Chunk boundaries only affect
    // how much gets covered, never what any covered case produces.
    std::printf("fuzz_soak: %llds budget, %d-case chunks from seed %llu (jobs=%d)\n",
                budget_s, chunk, static_cast<unsigned long long>(seed), jobs);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(budget_s);
    while (std::chrono::steady_clock::now() < deadline) {
      check::SweepStats chunk_stats = check::run_sweep(seed, chunk, executor, opts);
      stats.merge(chunk_stats);
      opts.start += chunk;
      if (!chunk_stats.ok()) break;  // stop soaking, report what failed
    }
  } else {
    std::printf("fuzz_soak: %d cases from seed %llu (jobs=%d)\n", cases,
                static_cast<unsigned long long>(seed), jobs);
    stats = check::run_sweep(seed, cases, executor, opts);
  }
  std::printf("%s\n", stats.summary().c_str());
  if (!stats.covered_all_algorithms()) {
    std::printf("note: sweep too small to cover every registered algorithm\n");
  }

  if (stats.ok()) {
    std::printf("OK: every property held on all %d configs\n", stats.cases);
    return 0;
  }

  util::Table table({"original", "shrunk_repro", "failure"});
  for (const auto& f : stats.failures) {
    std::printf("FAIL: %s\n  shrunk repro: %s\n", f.what.c_str(), f.shrunk_repro.c_str());
    table.add_row({f.original.repro(), f.shrunk_repro, f.what});
  }
  const std::string path = cli.get("csv-dir") + "/fuzz_soak_failures.csv";
  if (table.write_csv(path)) std::printf("[csv] %s\n", path.c_str());
  std::printf("%zu failing configs; replay with --repro='...'\n", stats.failures.size());
  return 1;
}
