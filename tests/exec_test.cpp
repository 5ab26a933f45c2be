// Tests for src/exec: the batch case executor and the content-addressed
// result cache, plus the cross-layer guarantees that justify them —
//   * results in submission order, bit-identical for every thread budget;
//   * host-thread budgeting (sum of declared case costs never exceeds the
//     pool; since the fiber rearchitecture an engine case costs its resolved
//     scheduler worker count, not nranks);
//   * a TSan-targeted stress run: oversubscribed pool, mixed-nranks engine
//     cases, and an injected mid-case throw that must not deadlock (the
//     engine poisons mailboxes so abandoned peers unwind);
//   * warm-cache runs execute zero simulations and reproduce results
//     bit for bit (EnergyStudy calibration + validation);
//   * parallel check::run_sweep is byte-identical to serial, and a shrunk
//     repro does not depend on where in the sweep the failure was found.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/study.hpp"
#include "analysis/surface.hpp"
#include "check/check.hpp"
#include "check/generators.hpp"
#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "exec/executor.hpp"
#include "model/workloads.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace {

namespace fs = std::filesystem;
using namespace isoee;

/// Fresh per-test scratch directory (removed up front so reruns start cold).
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("isoee_exec_test_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// prefix + decimal i, appended piecewise: `"k" + std::to_string(i)` trips a
/// GCC 12 -Wrestrict false positive in Release builds.
std::string numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

sim::MachineSpec tiny_machine() {
  sim::MachineSpec m;
  m.name = "tiny";
  m.nodes = 16;
  m.sockets_per_node = 2;
  m.cores_per_socket = 4;
  m.cpu.cpi = 1.0;
  m.cpu.base_ghz = 2.0;
  m.cpu.gears_ghz = {2.0, 1.5, 1.0};
  m.mem.caches = {sim::CacheLevel{32 * 1024, 1e-9}, sim::CacheLevel{1 << 20, 5e-9}};
  m.mem.dram_latency_s = 100e-9;
  m.net.t_s = 1e-6;
  m.net.bandwidth_Bps = 1e9;
  m.power.cpu_idle_w = 10;
  m.power.cpu_delta_w = 8;
  return m;
}

// ---------------------------------------------------------------------------
// Codec: cached payloads must round-trip doubles bit for bit.
// ---------------------------------------------------------------------------

TEST(Codec, U64HexRoundTrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL, 0x8000000000000000ULL}) {
    const std::string hex = exec::encode_u64(v);
    EXPECT_EQ(hex.size(), 16u);
    ASSERT_TRUE(exec::decode_u64(hex).has_value()) << hex;
    EXPECT_EQ(*exec::decode_u64(hex), v);
  }
  EXPECT_FALSE(exec::decode_u64("123").has_value());
  EXPECT_FALSE(exec::decode_u64("00000000000000zz").has_value());
}

TEST(Codec, DoublesRoundTripExactlyIncludingNanAndSignedZero) {
  const std::vector<double> values = {0.0,
                                      -0.0,
                                      1.0 / 3.0,
                                      -2.718281828459045,
                                      1e-308,
                                      std::nan("0x7ff"),
                                      std::numeric_limits<double>::infinity()};
  const std::vector<double> back = exec::decode_doubles(exec::encode_doubles(values));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Bit equality, not value equality: NaN != NaN and -0.0 == +0.0 would
    // both hide codec bugs.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]), std::bit_cast<std::uint64_t>(values[i]))
        << i;
  }
  EXPECT_TRUE(exec::decode_doubles("").empty());
  EXPECT_THROW(exec::decode_doubles("nothex"), std::invalid_argument);
}

TEST(Codec, CaseSeedsAreDecorrelated) {
  // Neighbouring indices and neighbouring root seeds must give distinct
  // streams (the pre-executor bug class: every case sharing one generator).
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) seeds.push_back(exec::case_seed(42, i));
  for (std::uint64_t i = 0; i < 64; ++i) seeds.push_back(exec::case_seed(43, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// ---------------------------------------------------------------------------
// run_batch: ordering, budgeting, failure semantics.
// ---------------------------------------------------------------------------

TEST(RunBatch, ResultsArriveInSubmissionOrderRegardlessOfCompletionOrder) {
  std::vector<exec::Case> cases;
  for (int i = 0; i < 8; ++i) {
    exec::Case c;
    c.run = [i]() -> std::string {
      // Early cases finish last.
      std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
      return "case-" + std::to_string(i);
    };
    cases.push_back(std::move(c));
  }
  exec::BatchOptions opts;
  opts.thread_budget = 8;
  const auto results = exec::run_batch(cases, opts);
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(results[static_cast<std::size_t>(i)].ok());
    EXPECT_EQ(results[static_cast<std::size_t>(i)].payload, "case-" + std::to_string(i));
  }
}

TEST(RunBatch, HostThreadBudgetIsNeverExceeded) {
  constexpr int kBudget = 4;
  std::atomic<int> in_use{0};
  std::atomic<int> peak{0};
  std::vector<exec::Case> cases;
  for (int i = 0; i < 24; ++i) {
    exec::Case c;
    c.threads = 1 + i % 3;  // mixed widths 1..3, all admittable
    const int cost = c.threads;
    c.run = [&, cost]() -> std::string {
      const int now = in_use.fetch_add(cost) + cost;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      in_use.fetch_sub(cost);
      return std::string();
    };
    cases.push_back(std::move(c));
  }
  exec::BatchStats stats;
  exec::BatchOptions opts;
  opts.thread_budget = kBudget;
  opts.stats = &stats;
  const auto results = exec::run_batch(cases, opts);
  for (const auto& r : results) EXPECT_TRUE(r.ok());
  EXPECT_LE(peak.load(), kBudget);
  EXPECT_LE(stats.max_threads_in_use, kBudget);
  EXPECT_GT(stats.max_threads_in_use, 1);  // the pool genuinely overlapped work
  EXPECT_EQ(stats.started, 24u);
}

TEST(RunBatch, CaseWiderThanTheBudgetRunsAloneInsteadOfDeadlocking) {
  std::vector<exec::Case> cases(3);
  cases[0].threads = 100;  // wider than any sane budget
  cases[0].run = [] { return std::string("wide"); };
  cases[1].threads = 2;
  cases[1].run = [] { return std::string("a"); };
  cases[2].threads = 2;
  cases[2].run = [] { return std::string("b"); };
  exec::BatchStats stats;
  exec::BatchOptions opts;
  opts.thread_budget = 4;
  opts.stats = &stats;
  const auto results = exec::run_batch(cases, opts);
  EXPECT_EQ(results[0].payload, "wide");
  EXPECT_EQ(results[1].payload, "a");
  EXPECT_EQ(results[2].payload, "b");
  EXPECT_LE(stats.max_threads_in_use, 4);  // the wide case's cost clamps
}

TEST(RunBatch, EngineCaseCostIsResolvedWorkersNotRanks) {
  // Budget doctrine since the fiber rearchitecture: a simulation case
  // declares the scheduler worker count the engine will actually use — a
  // handful of host threads — not nranks. Explicit requests clamp to
  // [1, nranks]; the automatic policy stays far below wide rank counts.
  EXPECT_EQ(sim::resolve_engine_workers(6, 4), 4);
  EXPECT_EQ(sim::resolve_engine_workers(3, 1024), 3);
  // A negative worker count is a caller error at every boundary.
  EXPECT_THROW(sim::resolve_engine_workers(-2, 1024), std::invalid_argument);
  EXPECT_THROW(sim::set_default_engine_workers(-1), std::invalid_argument);
  sim::EngineOptions bad;
  bad.workers = -2;
  EXPECT_THROW(sim::Engine(sim::system_g(), bad), std::invalid_argument);

  // 0 resolves through the process default and ISOEE_ENGINE_WORKERS (a CI job
  // sets it) to the automatic policy, whatever the host's core count.
  const int w = sim::resolve_engine_workers(0, 1024);
  const char* env = std::getenv("ISOEE_ENGINE_WORKERS");
  if (sim::default_engine_workers() == 0) {
    const int from_env = env == nullptr ? 0 : std::atoi(env);
    EXPECT_EQ(w, from_env > 0 ? std::min(from_env, 1024) : sim::auto_engine_workers(1024));
  }
  EXPECT_EQ(sim::auto_engine_workers(16), 1);
  const int auto_wide = sim::auto_engine_workers(1024);
  EXPECT_GE(auto_wide, 1);
  EXPECT_LE(auto_wide, 8);  // min(hardware, 8), never anywhere near p

  // Under the old nranks-cost doctrine a p=1024 case clamped to the whole
  // budget and ran alone; with worker-count costs a default budget admits
  // several wide cases at once (checked when the resolved cost allows it).
  constexpr int kBudget = 4;
  if (2 * w <= kBudget) {
    std::atomic<int> running{0};
    std::atomic<int> peak_cases{0};
    std::vector<exec::Case> cases;
    for (int i = 0; i < 6; ++i) {
      exec::Case c;
      c.threads = w;  // what study/service/check declare for a p=1024 case
      c.run = [&]() -> std::string {
        const int now = running.fetch_add(1) + 1;
        int seen = peak_cases.load();
        while (now > seen && !peak_cases.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        running.fetch_sub(1);
        return std::string();
      };
      cases.push_back(std::move(c));
    }
    exec::BatchStats stats;
    exec::BatchOptions opts;
    opts.thread_budget = kBudget;
    opts.stats = &stats;
    const auto results = exec::run_batch(cases, opts);
    for (const auto& r : results) EXPECT_TRUE(r.ok());
    EXPECT_GE(peak_cases.load(), 2);  // wide cases genuinely overlapped
    EXPECT_LE(stats.max_threads_in_use, kBudget);
  }
}

TEST(RunBatch, ThrowingCaseIsRecordedAndOthersComplete) {
  std::vector<exec::Case> cases(3);
  cases[0].run = [] { return std::string("ok0"); };
  cases[1].run = []() -> std::string { throw std::runtime_error("boom"); };
  cases[2].run = [] { return std::string("ok2"); };
  exec::BatchOptions opts;
  opts.thread_budget = 3;
  const auto results = exec::run_batch(cases, opts);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].error, "boom");
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(RunBatch, FailFastSkipsEverythingAfterTheFailureInSerialMode) {
  std::vector<exec::Case> cases(6);
  for (int i = 0; i < 6; ++i) {
    cases[static_cast<std::size_t>(i)].run = [i]() -> std::string {
      if (i == 2) throw std::runtime_error("fail at 2");
      return std::to_string(i);
    };
  }
  exec::BatchStats stats;
  exec::BatchOptions opts;
  opts.thread_budget = 1;  // serial: skip set is exactly the suffix
  opts.fail_fast = true;
  opts.stats = &stats;
  const auto results = exec::run_batch(cases, opts);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(results[2].error, "fail at 2");
  for (int i = 3; i < 6; ++i) EXPECT_TRUE(results[static_cast<std::size_t>(i)].skipped);
  EXPECT_EQ(stats.skipped, 3u);
  EXPECT_EQ(stats.started, 3u);
}

TEST(RunBatch, FailFastCancelsNotYetAdmittedCasesInParallelMode) {
  std::vector<exec::Case> cases(64);
  for (int i = 0; i < 64; ++i) {
    cases[static_cast<std::size_t>(i)].run = [i]() -> std::string {
      if (i == 0) throw std::runtime_error("first case fails");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return std::to_string(i);
    };
  }
  exec::BatchStats stats;
  exec::BatchOptions opts;
  opts.thread_budget = 2;
  opts.fail_fast = true;
  opts.stats = &stats;
  const auto results = exec::run_batch(cases, opts);
  EXPECT_EQ(results[0].error, "first case fails");
  EXPECT_GT(stats.skipped, 0u);  // the long tail never ran
  std::uint64_t skipped = 0;
  for (const auto& r : results) skipped += r.skipped ? 1 : 0;
  EXPECT_EQ(skipped, stats.skipped);
}

TEST(RunBatch, IsFailurePredicateTriggersFailFast) {
  std::vector<exec::Case> cases(4);
  for (int i = 0; i < 4; ++i) {
    cases[static_cast<std::size_t>(i)].run = [i] {
      return std::string(i == 1 ? "bad" : "good");
    };
  }
  exec::BatchOptions opts;
  opts.thread_budget = 1;
  opts.fail_fast = true;
  opts.is_failure = [](const exec::CaseResult& r) { return r.payload == "bad"; };
  const auto results = exec::run_batch(cases, opts);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].payload, "bad");
  EXPECT_TRUE(results[2].skipped);
  EXPECT_TRUE(results[3].skipped);
}

TEST(RunBatch, ParallelPayloadsAreBitIdenticalToSerial) {
  const auto build = [] {
    std::vector<exec::Case> cases;
    for (int i = 0; i < 12; ++i) {
      exec::Case c;
      c.run = [i]() -> std::string {
        // Deterministic per-case stream derived via case_seed.
        std::uint64_t s = exec::case_seed(7, static_cast<std::uint64_t>(i));
        double acc = 0.0;
        for (int k = 0; k < 64; ++k) {
          s = s * 6364136223846793005ULL + 1442695040888963407ULL;
          acc += static_cast<double>(s >> 11) * 0x1.0p-53;
        }
        return exec::encode_f64(acc);
      };
      cases.push_back(std::move(c));
    }
    return cases;
  };
  exec::BatchOptions serial;
  serial.thread_budget = 1;
  exec::BatchOptions parallel;
  parallel.thread_budget = 8;
  const auto a = exec::run_batch(build(), serial);
  const auto b = exec::run_batch(build(), parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].payload, b[i].payload);
}

// ---------------------------------------------------------------------------
// Stress: oversubscribed pool, mixed-nranks engine cases, injected throw.
// Run under TSan in CI; locally it still exercises the poisoning path —
// before the mailbox fix this test deadlocked on the throwing case.
// ---------------------------------------------------------------------------

TEST(ExecutorStress, OversubscribedEngineCasesWithInjectedThrowDoNotDeadlock) {
  const sim::MachineSpec spec = tiny_machine();
  constexpr int kCases = 24;
  constexpr int kThrowingCase = 13;

  const auto build = [&spec] {
    std::vector<exec::Case> cases;
    for (int i = 0; i < kCases; ++i) {
      const int nranks = 1 << (i % 3);  // 1, 2, 4 engine threads per case
      exec::Case c;
      c.threads = nranks;
      c.run = [&spec, nranks, i]() -> std::string {
        sim::Engine eng(spec);
        if (i == kThrowingCase) {
          // Rank 1 dies while every peer blocks on a message it will never
          // send; the engine must unwind them all (RankAbandoned) and
          // rethrow the root cause into this case slot.
          eng.run(4, [](sim::RankCtx& ctx) {
            if (ctx.rank() == 1) throw std::runtime_error("injected failure");
            std::vector<double> buf(4);
            ctx.recv(1, 9, std::span<double>(buf));
          });
        }
        // A ring of sends so the mixed-width cases genuinely interleave.
        const auto res = eng.run(nranks, [&](sim::RankCtx& ctx) {
          ctx.compute(2000 + 100 * i);
          if (nranks > 1) {
            std::vector<double> out(8, static_cast<double>(ctx.rank()));
            std::vector<double> in(8);
            const int next = (ctx.rank() + 1) % nranks;
            const int prev = (ctx.rank() + nranks - 1) % nranks;
            ctx.send(next, 3, std::span<const double>(out));
            ctx.recv(prev, 3, std::span<double>(in));
          }
        });
        return exec::encode_f64(res.makespan) + ":" + exec::encode_f64(res.total_energy_j());
      };
      cases.push_back(std::move(c));
    }
    return cases;
  };

  exec::BatchStats stats;
  exec::BatchOptions opts;
  opts.thread_budget = 4;  // far fewer host threads than sum(nranks) = 56
  opts.stats = &stats;
  const auto results = exec::run_batch(build(), opts);

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kCases));
  for (int i = 0; i < kCases; ++i) {
    const auto& r = results[static_cast<std::size_t>(i)];
    if (i == kThrowingCase) {
      EXPECT_EQ(r.error, "injected failure");
    } else {
      EXPECT_TRUE(r.ok()) << i << ": " << r.error;
      EXPECT_FALSE(r.payload.empty());
    }
  }
  EXPECT_LE(stats.max_threads_in_use, 4);

  // And the whole batch is bit-identical serial vs oversubscribed-parallel.
  exec::BatchOptions serial;
  serial.thread_budget = 1;
  const auto reference = exec::run_batch(build(), serial);
  for (int i = 0; i < kCases; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].payload,
              reference[static_cast<std::size_t>(i)].payload)
        << i;
    EXPECT_EQ(results[static_cast<std::size_t>(i)].error,
              reference[static_cast<std::size_t>(i)].error)
        << i;
  }
}

// ---------------------------------------------------------------------------
// ResultCache.
// ---------------------------------------------------------------------------

TEST(ResultCache, StoresAndLoadsAcrossInstances) {
  const std::string dir = scratch_dir("roundtrip");
  {
    exec::ResultCache cache(dir);
    ASSERT_TRUE(cache.enabled());
    EXPECT_FALSE(cache.load("missing").has_value());
    EXPECT_TRUE(cache.store("key-1", "payload\nwith\nnewlines"));
    EXPECT_TRUE(cache.store("key-2", std::string("\0binary\x1f", 8)));
  }
  exec::ResultCache cache(dir);  // a fresh process sees the same entries
  ASSERT_TRUE(cache.load("key-1").has_value());
  EXPECT_EQ(*cache.load("key-1"), "payload\nwith\nnewlines");
  ASSERT_TRUE(cache.load("key-2").has_value());
  EXPECT_EQ(*cache.load("key-2"), std::string("\0binary\x1f", 8));
  EXPECT_GE(cache.hits(), 2u);
}

TEST(ResultCache, CorruptEntryDegradesToAMissNeverToAWrongResult) {
  const std::string dir = scratch_dir("corrupt");
  exec::ResultCache cache(dir);
  ASSERT_TRUE(cache.store("key", "good payload"));
  // Clobber every entry file: the stored-key line no longer matches.
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
    out << "garbage\nnot the payload";
  }
  EXPECT_FALSE(cache.load("key").has_value());
}

TEST(ResultCache, UnusableDirectoryDisablesTheCacheWithoutFailing) {
  const std::string file = scratch_dir("not_a_dir");
  std::ofstream(file) << "occupied";
  exec::ResultCache cache(file + "/sub");  // parent is a file: mkdir must fail
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.load("k").has_value());
  EXPECT_FALSE(cache.store("k", "v"));
}

TEST(ResultCache, WarmBatchExecutesNothing) {
  const std::string dir = scratch_dir("warm_batch");
  exec::ResultCache cache(dir);
  std::atomic<int> executions{0};
  const auto build = [&] {
    std::vector<exec::Case> cases;
    for (int i = 0; i < 6; ++i) {
      exec::Case c;
      c.cache_key = "case\x1f" + std::to_string(i);
      c.run = [&executions, i] {
        ++executions;
        return numbered("r", i);
      };
      cases.push_back(std::move(c));
    }
    return cases;
  };
  exec::BatchStats cold_stats;
  exec::BatchOptions opts;
  opts.thread_budget = 4;
  opts.cache = &cache;
  opts.stats = &cold_stats;
  const auto cold = exec::run_batch(build(), opts);
  EXPECT_EQ(executions.load(), 6);
  EXPECT_EQ(cold_stats.cache_hits, 0u);

  exec::BatchStats warm_stats;
  opts.stats = &warm_stats;
  const auto warm = exec::run_batch(build(), opts);
  EXPECT_EQ(executions.load(), 6) << "warm run must not execute any case";
  EXPECT_EQ(warm_stats.cache_hits, 6u);
  EXPECT_EQ(warm_stats.started, 0u);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_EQ(warm[i].payload, cold[i].payload);
  }
}

TEST(ResultCache, ErrorsAreNeverCached) {
  const std::string dir = scratch_dir("no_error_cache");
  exec::ResultCache cache(dir);
  std::atomic<int> executions{0};
  const auto build = [&] {
    std::vector<exec::Case> cases(1);
    cases[0].cache_key = "flaky";
    cases[0].run = [&executions]() -> std::string {
      if (++executions == 1) throw std::runtime_error("transient");
      return "recovered";
    };
    return cases;
  };
  exec::BatchOptions opts;
  opts.cache = &cache;
  EXPECT_EQ(exec::run_batch(build(), opts)[0].error, "transient");
  const auto second = exec::run_batch(build(), opts);
  EXPECT_EQ(second[0].payload, "recovered") << "the error must not have been cached";
  EXPECT_EQ(executions.load(), 2);
}

/// Stores `count` entries of ~`bytes` each with strictly increasing write
/// times (entry i is older than entry i+1), so oldest-first pruning order is
/// deterministic regardless of filesystem timestamp granularity.
void store_aged_entries(const exec::ResultCache& cache, const std::string& dir, int count,
                        std::size_t bytes) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(cache.store("entry-" + std::to_string(i), std::string(bytes, 'a' + i)));
  }
  // Re-stamp write times oldest-first by stored key (the key is each entry
  // file's first line).
  const auto now = fs::file_time_type::clock::now();
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::string key;
    std::getline(in, key);
    const int i = std::stoi(key.substr(key.rfind('-') + 1));
    fs::last_write_time(e.path(), now - std::chrono::hours(count - i));
  }
}

TEST(ResultCache, CapPrunesOldestEntriesFirst) {
  const std::string dir = scratch_dir("prune_oldest");
  {
    exec::ResultCache cache(dir);
    store_aged_entries(cache, dir, 6, 1000);
  }
  // Measure one entry's on-disk size (payload + key line + framing) from the
  // directory: the unbounded cache never tracks its footprint.
  std::uint64_t total_bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total_bytes += e.file_size();
  }
  const std::uint64_t entry_bytes = total_bytes / 6;
  ASSERT_GT(entry_bytes, 1000u);
  // Reopen with room for ~3 entries; the next store must prune the oldest.
  exec::ResultCache cache(dir, 3 * entry_bytes + entry_bytes / 2);
  ASSERT_TRUE(cache.store("entry-6", std::string(1000, 'g')));
  EXPECT_GE(cache.pruned(), 3u);
  EXPECT_LE(cache.approx_bytes(), cache.max_bytes());
  // Newest entries survive; the oldest are gone (a miss, never an error).
  EXPECT_TRUE(cache.load("entry-6").has_value());
  EXPECT_TRUE(cache.load("entry-5").has_value());
  EXPECT_FALSE(cache.load("entry-0").has_value());
  EXPECT_FALSE(cache.load("entry-1").has_value());
}

TEST(ResultCache, MaxBytesZeroMeansUnbounded) {
  const std::string dir = scratch_dir("prune_unbounded");
  exec::ResultCache cache(dir);  // default: no cap
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cache.store(numbered("k", i), std::string(4096, 'x')));
  }
  EXPECT_EQ(cache.pruned(), 0u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(cache.load(numbered("k", i)).has_value()) << i;
  }
}

TEST(ResultCache, PrunedEntriesAreRecomputedNotResurrected) {
  const std::string dir = scratch_dir("prune_recompute");
  exec::ResultCache cache(dir, 1);  // cap below a single entry
  ASSERT_TRUE(cache.store("only", "payload"));
  EXPECT_GE(cache.pruned(), 1u);
  EXPECT_FALSE(cache.load("only").has_value());
  // Storing again works: pruning never poisons a key.
  ASSERT_TRUE(cache.store("only", "payload"));
}

TEST(ResultCache, MachineFingerprintSeparatesPresetsAndNoiseSeeds) {
  const std::string a = exec::machine_fingerprint(sim::system_g());
  const std::string b = exec::machine_fingerprint(sim::dori());
  EXPECT_NE(a, b);
  auto g = sim::system_g();
  g.noise.seed += 1;
  EXPECT_NE(exec::machine_fingerprint(g), a);
}

// ---------------------------------------------------------------------------
// EnergyStudy on a warm cache: zero simulations, bit-identical results.
// ---------------------------------------------------------------------------

TEST(WarmCache, StudyRerunExecutesZeroSimulationsAndReproducesResults) {
  const std::string dir = scratch_dir("study");
  auto spec = sim::system_g();
  spec.noise.enabled = false;
  exec::ExecConfig ec;
  ec.jobs = 4;
  ec.cache_dir = dir;
  const double ns[] = {1 << 14, 1 << 15};
  const int ps[] = {2, 4};

  analysis::EnergyStudy cold(spec, analysis::make_adapter(npb::EpConfig()), /*measured=*/true,
                             ec);
  cold.calibrate(ns, ps);
  const auto v_cold = cold.validate(1 << 16, 4);

  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  analysis::EnergyStudy warm(spec, analysis::make_adapter(npb::EpConfig()), /*measured=*/true,
                             ec);
  warm.calibrate(ns, ps);
  const auto v_warm = warm.validate(1 << 16, 4);
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before)
      << "warm-cache study rerun must execute zero simulations";

  // Bit equality on every simulation-derived quantity.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v_warm.actual_j),
            std::bit_cast<std::uint64_t>(v_cold.actual_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v_warm.actual_s),
            std::bit_cast<std::uint64_t>(v_cold.actual_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v_warm.predicted_j),
            std::bit_cast<std::uint64_t>(v_cold.predicted_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.machine_params().t_w),
            std::bit_cast<std::uint64_t>(cold.machine_params().t_w));
}

// ---------------------------------------------------------------------------
// Surfaces and sweeps: parallel must be byte-identical to serial.
// ---------------------------------------------------------------------------

TEST(Determinism, SurfaceGridIsIdenticalForEveryThreadBudget) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::FtWorkload ft;
  const int ps[] = {1, 4, 16, 64, 256};
  const double fs[] = {1.6, 2.0, 2.4, 2.8};
  exec::ExecConfig serial;  // jobs = 1
  exec::ExecConfig parallel;
  parallel.jobs = 8;
  const auto a = analysis::ee_surface_pf(machine, ft, 64.0 * 64 * 64, ps, fs, serial);
  const auto b = analysis::ee_surface_pf(machine, ft, 64.0 * 64 * 64, ps, fs, parallel);
  // Byte-for-byte CSV equality — exactly what the fig drivers emit.
  EXPECT_EQ(analysis::surface_table(a).to_csv(), analysis::surface_table(b).to_csv());
}

TEST(Determinism, ParallelRunSweepIsByteIdenticalToSerial) {
  constexpr std::uint64_t kSeed = 20260806ULL;
  check::SweepOptions serial;
  serial.fault.ring_allgather_off_by_one = true;  // guarantee failures + shrinks
  serial.exec.jobs = 1;
  check::SweepOptions parallel = serial;
  parallel.exec.jobs = 8;

  const auto a = check::run_sweep(kSeed, 200, serial);
  const auto b = check::run_sweep(kSeed, 200, parallel);

  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_FALSE(a.failures.empty()) << "sweep generated no ring-allgather case";
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].original.repro(), b.failures[i].original.repro()) << i;
    EXPECT_EQ(a.failures[i].what, b.failures[i].what) << i;
    EXPECT_EQ(a.failures[i].shrunk_repro, b.failures[i].shrunk_repro) << i;
  }
}

// Regression for the shrinker state leak: shrinking the same failing config
// must produce byte-identical output no matter where in a sweep it was found.
TEST(Determinism, ShrunkReproIsIndependentOfSweepOffset) {
  constexpr std::uint64_t kSeed = 20260806ULL;
  check::FaultInjection fault;
  fault.ring_allgather_off_by_one = true;

  // Find a case the planted fault trips.
  int failing_index = -1;
  for (int i = 0; i < 400; ++i) {
    const check::CheckConfig cfg = check::generate_case(kSeed, i);
    if (cfg.op == check::OpKind::kAllgather &&
        cfg.algo == static_cast<int>(smpi::AllgatherAlgo::kRing) && cfg.elems > 0 &&
        cfg.p > 1 && !cfg.tuned) {
      failing_index = i;
      break;
    }
  }
  ASSERT_GE(failing_index, 0) << "generator never produced a fixed ring allgather";
  const std::string repro = check::generate_case(kSeed, failing_index).repro();

  // Sweep A reaches the case after shrinking earlier sweep positions' work;
  // sweep B starts directly at it. Before shrink() was made pure, the
  // shrinker's RNG state at arrival differed, and so did the output.
  check::SweepOptions from_zero;
  from_zero.fault = fault;
  const auto sweep_a = check::run_sweep(kSeed, failing_index + 1, from_zero);

  check::SweepOptions from_offset = from_zero;
  from_offset.start = failing_index;
  const auto sweep_b = check::run_sweep(kSeed, 1, from_offset);

  ASSERT_EQ(sweep_b.failures.size(), 1u);
  const std::string* shrunk_a = nullptr;
  for (const auto& f : sweep_a.failures) {
    if (f.original.repro() == repro) shrunk_a = &f.shrunk_repro;
  }
  ASSERT_NE(shrunk_a, nullptr) << "full sweep missed the planted failure";
  EXPECT_EQ(*shrunk_a, sweep_b.failures[0].shrunk_repro);

  // And the string-level entry point is a pure function of its inputs.
  const auto pred = check::failure_predicate(fault);
  const std::string direct_1 = check::shrink_repro(repro, pred);
  // Interleave an unrelated shrink to perturb any residual shared state.
  (void)check::shrink_repro(sweep_b.failures[0].shrunk_repro, pred, 40);
  const std::string direct_2 = check::shrink_repro(repro, pred);
  EXPECT_EQ(direct_1, direct_2);
}

// Chunked soak accounting: merged chunk stats equal the one-shot sweep.
TEST(Determinism, ChunkedSweepStatsMergeToTheOneShotSweep) {
  constexpr std::uint64_t kSeed = 97ULL;
  check::SweepOptions opts;
  const auto whole = check::run_sweep(kSeed, 60, opts);

  check::SweepStats merged;
  for (int start = 0; start < 60; start += 20) {
    check::SweepOptions chunk;
    chunk.start = start;
    merged.merge(check::run_sweep(kSeed, 20, chunk));
  }
  EXPECT_EQ(merged.summary(), whole.summary());
  EXPECT_EQ(merged.cases_per_op, whole.cases_per_op);
  EXPECT_EQ(merged.cases_per_algorithm, whole.cases_per_algorithm);
}

}  // namespace
