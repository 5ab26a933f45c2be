// Tests for src/exec: the batch case executor and the content-addressed
// result cache, plus the cross-layer guarantees that justify them —
//   * results in submission order, bit-identical for every thread budget;
//   * host-thread budgeting (sum of declared case costs never exceeds the
//     pool; since the fiber rearchitecture an engine case costs its resolved
//     scheduler worker count, not nranks);
//   * a TSan-targeted stress run: oversubscribed pool, mixed-nranks engine
//     cases, and an injected mid-case throw that must not deadlock (the
//     engine poisons mailboxes so abandoned peers unwind);
//   * one executor per process: concurrent batches share one FIFO budget,
//     a key in flight runs once however many batches miss it, and a case
//     body cannot nest a batch;
//   * warm-cache runs execute zero simulations and reproduce results
//     bit for bit (EnergyStudy calibration + validation);
//   * parallel check::run_sweep is byte-identical to serial, and a shrunk
//     repro does not depend on where in the sweep the failure was found.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/study.hpp"
#include "check/check.hpp"
#include "check/generators.hpp"
#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "exec/executor.hpp"
#include "obs/metrics.hpp"
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

/// An executor config with `jobs` host threads and an optional cache directory.
exec::ExecConfig exec_config(int jobs, std::string cache_dir = "") {
  exec::ExecConfig config;
  config.jobs = jobs;
  config.cache_dir = std::move(cache_dir);
  return config;
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

// ---------------------------------------------------------------------------
// Executor::run: ordering, budgeting, failure semantics.
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
  exec::Executor executor(exec_config(8));
  const auto results = executor.run(cases);
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
  exec::Executor executor(exec_config(kBudget));
  const auto results = executor.run(cases, &stats);
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
  exec::Executor executor(exec_config(4));
  const auto results = executor.run(cases, &stats);
  EXPECT_EQ(results[0].payload, "wide");
  EXPECT_EQ(results[1].payload, "a");
  EXPECT_EQ(results[2].payload, "b");
  EXPECT_LE(stats.max_threads_in_use, 4);  // the wide case's cost clamps
}

TEST(RunBatch, EngineWorkersEnvironmentVariableIsReadEachTimeAndChecked) {
  // The variable is consulted only when the process default is automatic, so
  // clear that default for the test and put both back afterwards.
  const int saved_default = sim::default_engine_workers();
  const char* saved = std::getenv("ISOEE_ENGINE_WORKERS");
  const std::string saved_env = saved == nullptr ? "" : saved;
  sim::set_default_engine_workers(0);

  ASSERT_EQ(setenv("ISOEE_ENGINE_WORKERS", "2", 1), 0);
  EXPECT_EQ(sim::resolve_engine_workers(0, 1024), 2);
  ASSERT_EQ(unsetenv("ISOEE_ENGINE_WORKERS"), 0);
  EXPECT_EQ(sim::resolve_engine_workers(0, 1024), sim::auto_engine_workers(1024));
  // A mistyped value must not quietly fall back to the automatic width.
  for (const char* bad : {"abc", "-1", "5000", "2x"}) {
    ASSERT_EQ(setenv("ISOEE_ENGINE_WORKERS", bad, 1), 0);
    EXPECT_THROW(sim::resolve_engine_workers(0, 1024), std::invalid_argument) << bad;
  }

  if (saved == nullptr) {
    unsetenv("ISOEE_ENGINE_WORKERS");
  } else {
    setenv("ISOEE_ENGINE_WORKERS", saved_env.c_str(), 1);
  }
  sim::set_default_engine_workers(saved_default);
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
    exec::Executor executor(exec_config(kBudget));
    const auto results = executor.run(cases, &stats);
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
  exec::Executor executor(exec_config(3));
  const auto results = executor.run(cases);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].error, "boom");
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(RunBatch, ParallelPayloadsAreBitIdenticalToSerial) {
  const auto build = [] {
    std::vector<exec::Case> cases;
    for (int i = 0; i < 12; ++i) {
      exec::Case c;
      c.run = [i]() -> std::string {
        // Deterministic per-case stream seeded from the case index.
        std::uint64_t s = static_cast<std::uint64_t>(i);
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
  exec::Executor serial(exec_config(1));
  exec::Executor parallel(exec_config(8));
  const auto a = serial.run(build());
  const auto b = parallel.run(build());
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
  // Far fewer host threads than sum(nranks) = 56.
  exec::Executor executor(exec_config(4));
  const auto results = executor.run(build(), &stats);

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
  exec::Executor serial(exec_config(1));
  const auto reference = serial.run(build());
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
// One executor per process: every batch takes its turn in one FIFO
// host-thread budget and shares one in-flight table. The SimTier tests budget
// the query service's simulation tier, which runs each request as one batch
// on the service's executor; their cases record when they start and how many
// run at once.
// ---------------------------------------------------------------------------

class RunProbe {
 public:
  /// A case that logs `label` as it starts, then keeps running until
  /// `together` probe cases have run at once, release() is called, or
  /// `linger` passes — so cases the budget lets overlap do overlap.
  exec::Case make(std::string label, int together, std::chrono::milliseconds linger) {
    exec::Case c;
    c.run = [this, label = std::move(label), together, linger] {
      std::unique_lock<std::mutex> lock(mu_);
      started_.push_back(label);
      peak_ = std::max(peak_, ++running_);
      cv_.notify_all();
      cv_.wait_for(lock, linger, [&] { return released_ || peak_ >= together; });
      --running_;
      return std::string();
    };
    return c;
  }

  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  /// Waits up to 30 s for `n` cases to have started; false on timeout.
  bool wait_started(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30), [&] { return started_.size() >= n; });
  }

  int peak() {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  std::vector<std::string> started() {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int running_ = 0;
  int peak_ = 0;
  bool released_ = false;
  std::vector<std::string> started_;
};

/// Runs `cases` as one batch and expects every case to have completed.
void run_job(exec::Executor& executor, const std::vector<exec::Case>& cases) {
  for (const exec::CaseResult& r : executor.run(cases)) EXPECT_TRUE(r.ok()) << r.error;
}

/// Waits up to 30 s for the `exec.queue_depth` gauge to read `n`.
bool wait_queue_depth(double n) {
  const obs::Gauge& depth = obs::metrics().gauge("exec.queue_depth");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (depth.value() != n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return depth.value() == n;
}

TEST(SimTier, BudgetOfOneRunsOneJobAtATimeAndOfTwoRunsTwo) {
  for (const int jobs : {1, 2}) {
    exec::Executor executor(exec_config(jobs));
    RunProbe probe;
    // Under a budget of 1 each case lingers a little, giving the other job
    // the chance to (wrongly) start; under 2 they wait for each other.
    const auto linger = std::chrono::milliseconds(jobs == 1 ? 100 : 30000);
    std::vector<std::thread> clients;
    for (int i = 0; i < 2; ++i) {
      clients.emplace_back([&] { run_job(executor, {probe.make("job", 2, linger)}); });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(probe.peak(), jobs) << "jobs=" << jobs;
  }
}

TEST(SimTier, BudgetTurnsAreFifoSoANarrowJobWaitsBehindAWideOne) {
  exec::Executor executor(exec_config(2));
  RunProbe probe;
  const auto job = [&](const std::string& label, int cases, int together) {
    std::vector<exec::Case> batch;
    for (int i = 0; i < cases; ++i) {
      batch.push_back(probe.make(label, together, std::chrono::seconds(60)));
    }
    return std::thread([&executor, batch = std::move(batch)] { run_job(executor, batch); });
  };
  // "a" holds one of the two threads until released.
  std::thread a = job("a", 1, 3);
  EXPECT_TRUE(probe.wait_started(1));
  // "b" is two cases wide, so it waits for "a".
  std::thread b = job("b", 2, 2);
  EXPECT_TRUE(wait_queue_depth(2));
  // "c" is one case wide and one thread is free, but its turn is after "b".
  std::thread c = job("c", 1, 1);
  EXPECT_TRUE(wait_queue_depth(3));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // room to jump the line
  EXPECT_EQ(probe.started(), std::vector<std::string>{"a"});

  probe.release();
  for (std::thread* t : {&a, &b, &c}) t->join();
  EXPECT_EQ(probe.started(), (std::vector<std::string>{"a", "b", "b", "c"}));
  EXPECT_TRUE(wait_queue_depth(0));
}

// The service folds a request's results after its batch returned, so a fold
// that throws leaves nothing in flight: the next request runs the key again.
TEST(SimTier, AFailedFoldIsNotCoalescedOntoAndTheKeyRunsAgain) {
  exec::Executor executor;
  std::atomic<int> runs{0};
  const auto counted = [&] {
    std::vector<exec::Case> cases(1);
    cases[0].cache_key = "fails-once";
    cases[0].run = [&runs] {
      ++runs;
      return std::string("payload");
    };
    return cases;
  };
  const auto failing_fold = [](const std::vector<exec::CaseResult>&) -> std::string {
    throw std::runtime_error("fold failed");
  };
  EXPECT_THROW(failing_fold(executor.run(counted())), std::runtime_error);

  exec::BatchStats again;
  const auto results = executor.run(counted(), &again);
  EXPECT_EQ(again.joined, 0u);
  EXPECT_EQ(results[0].payload, "payload");
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(obs::metrics().gauge("exec.queue_depth").value(), 0.0);
}

TEST(Executor, ConcurrentBatchesShareOneBudget) {
  exec::Executor executor(exec_config(2));
  RunProbe probe;
  // Each case lingers until four run at once or 200 ms pass, so with a budget
  // per batch the two batches' cases would overlap four at a time.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      const auto linger = std::chrono::milliseconds(200);
      run_job(executor, {probe.make("probe", 4, linger), probe.make("probe", 4, linger)});
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(probe.started().size(), 4u);
  EXPECT_LE(probe.peak(), 2);
}

TEST(Executor, TwoBatchesMissingTheSameKeyRunItOnce) {
  exec::Executor executor(exec_config(2));  // no cache directory
  std::atomic<int> runs{0};
  const auto batch = [&] {
    std::vector<exec::Case> cases(1);
    cases[0].cache_key = "shared";
    cases[0].run = [&runs] {
      ++runs;
      return std::string("payload");
    };
    return cases;
  };
  exec::BatchStats stats[2];
  std::string payloads[2];
  {
    // The gate keeps the first batch in line until the second has joined it.
    exec::BudgetGate gate(executor);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(
          [&, t] { payloads[t] = executor.run(batch(), &stats[t])[0].payload; });
    }
    EXPECT_TRUE(gate.release_after_joined(1, std::chrono::seconds(30)));
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(payloads[0], "payload");
  EXPECT_EQ(payloads[1], "payload");
  EXPECT_EQ(stats[0].started + stats[1].started, 1u);
  EXPECT_EQ(stats[0].joined + stats[1].joined, 1u);
}

TEST(Executor, ARepeatedKeyInOneBatchRunsOnce) {
  exec::Executor executor(exec_config(2));
  std::atomic<int> runs{0};
  std::vector<exec::Case> cases(3);
  for (exec::Case& c : cases) {
    c.cache_key = "repeated";
    c.run = [&runs] {
      ++runs;
      return std::string("payload");
    };
  }
  exec::BatchStats stats;
  const auto results = executor.run(cases, &stats);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.joined, 2u);
  for (const exec::CaseResult& r : results) EXPECT_EQ(r.payload, "payload");
}

TEST(Executor, NestedRunIsRejected) {
  for (const int jobs : {1, 2}) {
    exec::Executor executor(exec_config(jobs));
    std::vector<exec::Case> outer(1);
    outer[0].run = [&executor]() -> std::string {
      std::vector<exec::Case> inner(1);
      inner[0].run = [] { return std::string("inner"); };
      try {
        executor.run(inner);
      } catch (const std::logic_error&) {
        return "rejected";
      }
      return "nested run returned";
    };
    EXPECT_EQ(executor.run(outer)[0].payload, "rejected") << "jobs=" << jobs;
    // The guard covers the case body only: this thread runs batches again.
    std::vector<exec::Case> after(1);
    after[0].run = [] { return std::string("after"); };
    EXPECT_EQ(executor.run(after)[0].payload, "after") << "jobs=" << jobs;
  }
}

// ---------------------------------------------------------------------------
// ResultCache.
// ---------------------------------------------------------------------------

/// A process-wide exec.cache_* counter: the one place cache traffic is counted.
std::uint64_t cache_count(const char* name) { return obs::metrics().counter(name).value(); }

TEST(ResultCache, StoresAndLoadsAcrossInstances) {
  const std::string dir = scratch_dir("roundtrip");
  const std::uint64_t hits = cache_count("exec.cache_hits");
  const std::uint64_t misses = cache_count("exec.cache_misses");
  const std::uint64_t stores = cache_count("exec.cache_stores");
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
  EXPECT_EQ(cache_count("exec.cache_hits") - hits, 4u);
  EXPECT_EQ(cache_count("exec.cache_misses") - misses, 1u);
  EXPECT_EQ(cache_count("exec.cache_stores") - stores, 2u);
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
  exec::Executor executor(exec_config(4, scratch_dir("warm_batch")));
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
  const auto cold = executor.run(build(), &cold_stats);
  EXPECT_EQ(executions.load(), 6);
  EXPECT_EQ(cold_stats.cache_hits, 0u);

  exec::BatchStats warm_stats;
  const std::uint64_t hits = cache_count("exec.cache_hits");
  const auto warm = executor.run(build(), &warm_stats);
  EXPECT_EQ(executions.load(), 6) << "warm run must not execute any case";
  EXPECT_EQ(warm_stats.cache_hits, 6u);
  EXPECT_EQ(cache_count("exec.cache_hits") - hits, 6u);
  EXPECT_EQ(warm_stats.started, 0u);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_EQ(warm[i].payload, cold[i].payload);
  }
}

TEST(ResultCache, ErrorsAreNeverCached) {
  exec::Executor executor(exec_config(1, scratch_dir("no_error_cache")));
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
  EXPECT_EQ(executor.run(build())[0].error, "transient");
  const auto second = executor.run(build());
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
  const std::uint64_t pruned = cache_count("exec.cache_pruned");
  ASSERT_TRUE(cache.store("entry-6", std::string(1000, 'g')));
  EXPECT_GE(cache_count("exec.cache_pruned") - pruned, 3u);
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
  const std::uint64_t pruned = cache_count("exec.cache_pruned");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cache.store(numbered("k", i), std::string(4096, 'x')));
  }
  EXPECT_EQ(cache_count("exec.cache_pruned"), pruned);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(cache.load(numbered("k", i)).has_value()) << i;
  }
}

TEST(ResultCache, PrunedEntriesAreRecomputedNotResurrected) {
  const std::string dir = scratch_dir("prune_recompute");
  exec::ResultCache cache(dir, 1);  // cap below a single entry
  const std::uint64_t pruned = cache_count("exec.cache_pruned");
  ASSERT_TRUE(cache.store("only", "payload"));
  EXPECT_GE(cache_count("exec.cache_pruned") - pruned, 1u);
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
  exec::Executor executor(exec_config(4, dir));
  const double ns[] = {1 << 14, 1 << 15};
  const int ps[] = {2, 4};

  analysis::EnergyStudy cold(spec, analysis::make_adapter(npb::EpConfig()), /*measured=*/true,
                             executor);
  cold.calibrate(ns, ps);
  const auto v_cold = cold.validate(1 << 16, 4);

  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  analysis::EnergyStudy warm(spec, analysis::make_adapter(npb::EpConfig()), /*measured=*/true,
                             executor);
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
// Sweeps: parallel must be byte-identical to serial.
// ---------------------------------------------------------------------------

TEST(Determinism, ParallelRunSweepIsByteIdenticalToSerial) {
  constexpr std::uint64_t kSeed = 20260806ULL;
  check::SweepOptions opts;
  opts.fault.ring_allgather_off_by_one = true;  // guarantee failures + shrinks
  exec::Executor serial(exec_config(1));
  exec::Executor parallel(exec_config(8));

  const auto a = check::run_sweep(kSeed, 200, serial, opts);
  const auto b = check::run_sweep(kSeed, 200, parallel, opts);

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
  exec::Executor executor;
  check::SweepOptions from_zero;
  from_zero.fault = fault;
  const auto sweep_a = check::run_sweep(kSeed, failing_index + 1, executor, from_zero);

  check::SweepOptions from_offset = from_zero;
  from_offset.start = failing_index;
  const auto sweep_b = check::run_sweep(kSeed, 1, executor, from_offset);

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
  exec::Executor executor;
  const auto whole = check::run_sweep(kSeed, 60, executor);

  check::SweepStats merged;
  for (int start = 0; start < 60; start += 20) {
    check::SweepOptions chunk;
    chunk.start = start;
    merged.merge(check::run_sweep(kSeed, 20, executor, chunk));
  }
  EXPECT_EQ(merged.summary(), whole.summary());
  EXPECT_EQ(merged.cases_per_op, whole.cases_per_op);
  EXPECT_EQ(merged.cases_per_algorithm, whole.cases_per_algorithm);
}

}  // namespace
