// Engine throughput harness: BENCH-tracks the fiber engine at rank scale.
// Measures simulated rank-seconds per host second and engine events per
// second for representative workloads at p up to 4096: scheduler-bound ones
// (ring, token_ring, spawn-dominated sweeps) and FT, which is numerics-bound
// (most of its wall clock is host FFT math).
//
// Emits the usual table + CSV (engine_throughput.csv) and, for CI artifact
// upload, a JSON summary (engine_throughput.json in --csv-dir) with the raw
// measurements. The event counts are deterministic; scripts/bench_baseline.py
// gates them exactly against BENCH_engine_throughput.json.
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "npb/ft.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

using namespace isoee;

namespace {

sim::MachineSpec big_machine() {
  // The paper's SystemG tops out at 2600 cores; the point of the fiber engine
  // is to go past real testbeds, so the throughput rig is a scaled-up
  // SystemG-class cluster: 1024 nodes x 8 cores = 8192 core slots.
  auto m = sim::system_g();
  m.name = "system_g_8k";
  m.nodes = 1024;
  m.noise.enabled = false;
  return m;
}

struct Measurement {
  double wall_s = 0.0;
  double rank_seconds = 0.0;     // makespan * p (simulated rank-seconds)
  std::uint64_t events = 0;      // engine.events_processed delta

  double rank_s_per_s() const { return wall_s > 0.0 ? rank_seconds / wall_s : 0.0; }
  double events_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

Measurement run_case(const sim::MachineSpec& machine, int p,
                     const std::function<void(sim::RankCtx&)>& body, int repeats) {
  obs::Counter& events = obs::metrics().counter("engine.events_processed");
  const std::uint64_t ev0 = events.value();
  Measurement m;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    // A fresh Engine per repeat, like exec::Executor runs a sweep: the
    // per-job setup cost (fiber stacks, scheduler state) is part of what is
    // measured.
    sim::Engine engine(machine);
    const sim::RunResult result = engine.run(p, body);
    m.rank_seconds += result.makespan * static_cast<double>(p);
  }
  m.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  m.events = events.value() - ev0;
  return m;
}

// --- workloads --------------------------------------------------------------

/// Ring pt2pt: the scheduler stress case — every primitive is a message and
/// every receive is a potential fiber switch.
std::function<void(sim::RankCtx&)> ring_body(int p, int iters) {
  return [p, iters](sim::RankCtx& ctx) {
    const int next = (ctx.rank() + 1) % p;
    const int prev = (ctx.rank() + p - 1) % p;
    double token[1] = {static_cast<double>(ctx.rank())};
    for (int i = 0; i < iters; ++i) {
      ctx.compute(2000);
      ctx.send(next, /*tag=*/i % 16, std::span<const double>(token));
      ctx.recv(prev, /*tag=*/i % 16, std::span<double>(token));
    }
  };
}

/// Serial token ring: the latency-bound extreme — exactly one rank is ever
/// runnable, every receive blocks, and each hop is one scheduler hand-off
/// (a user-space fiber switch), so it isolates the engine's dispatch cost.
std::function<void(sim::RankCtx&)> token_ring_body(int p, int laps) {
  return [p, laps](sim::RankCtx& ctx) {
    const int next = (ctx.rank() + 1) % p;
    const int prev = (ctx.rank() + p - 1) % p;
    double token[1] = {0.0};
    for (int lap = 0; lap < laps; ++lap) {
      if (ctx.rank() == 0) {
        ctx.send(next, lap % 16, std::span<const double>(token));
        ctx.recv(prev, lap % 16, std::span<double>(token));
      } else {
        ctx.recv(prev, lap % 16, std::span<double>(token));
        ctx.send(next, lap % 16, std::span<const double>(token));
      }
    }
  };
}

/// Allreduce: log2(p)-structured collective traffic through smpi.
std::function<void(sim::RankCtx&)> allreduce_body(int iters) {
  return [iters](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    std::vector<double> in(64, 1.0), out(64);
    for (int i = 0; i < iters; ++i) {
      comm.allreduce_sum(std::span<const double>(in), std::span<double>(out));
      ctx.compute(4000);
    }
  };
}

/// FT: the real NPB kernel (actual FFT numerics + transpose all-to-alls).
/// Bruck all-to-all keeps the transpose at log2(p) steps so p=4096 stays in
/// single-digit seconds — the pairwise default would be p-1 steps of the
/// paper's model, which is the right *model* but an O(p^2) message count.
std::function<void(sim::RankCtx&)> ft_body(int p) {
  npb::FtConfig cfg;
  cfg.nx = std::max(64, p);
  cfg.ny = 1;  // thinnest legal grid: keeps the host FFT math from drowning
               // the scheduling cost this bench is tracking
  cfg.nz = std::max(64, p);
  cfg.iters = 2;
  cfg.collectives.alltoall = smpi::AlltoallAlgo::kBruck;
  return [cfg](sim::RankCtx& ctx) { (void)npb::ft_rank(ctx, cfg); };
}

struct Row {
  std::string workload;
  int p = 0;
  Measurement m;
};

}  // namespace

int main(int argc, char** argv) {
  if (!isoee::bench::init(argc, argv)) return 1;
  const auto machine = big_machine();

  bench::heading("engine throughput: fiber engine at rank scale",
                 "rank-seconds and engine events per host second, p up to 4096");

  std::vector<Row> rows;
  const auto measure = [&](const char* workload, int p, int repeats,
                           const std::function<void(sim::RankCtx&)>& body) {
    rows.push_back({workload, p, run_case(machine, p, body, repeats)});
  };
  measure("ring", 256, 1, ring_body(256, 100));
  measure("ring", 1024, 1, ring_body(1024, 100));
  measure("ring", 4096, 1, ring_body(4096, 50));
  measure("token_ring", 1024, 1, token_ring_body(1024, 20));
  measure("allreduce", 1024, 1, allreduce_body(20));
  // The repo's dominant load: sweeps of many short jobs (fig05 runs hundreds
  // of cases), where per-job engine setup is paid again for every job.
  measure("sweep20", 1024, 20, allreduce_body(2));
  // Setup-bound extreme: near-empty bodies isolate engine construction and
  // teardown (1024 fiber stacks per job).
  measure("spawn20", 1024, 20, [](sim::RankCtx& ctx) { ctx.compute(500); });
  measure("ft", 1024, 1, ft_body(1024));
  measure("ft", 4096, 1, ft_body(4096));

  util::Table table({"workload", "p", "wall_s", "rank_s_per_s", "events_per_s", "events"});
  for (const auto& r : rows) {
    table.add_row({r.workload, util::num(r.p), util::num(r.m.wall_s, 4),
                   util::sci(r.m.rank_s_per_s(), 3), util::sci(r.m.events_per_s(), 3),
                   util::num(static_cast<long long>(r.m.events))});
  }
  bench::emit(table, "engine_throughput");

  // JSON artifact for CI upload.
  const std::string json_path = std::string(bench::out_dir()) + "/engine_throughput.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w"); f != nullptr) {
    std::fprintf(f, "{\n  \"machine\": \"%s\",\n  \"rows\": [\n", machine.name.c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"p\": %d, "
                   "\"wall_s\": %.6f, \"rank_s_per_s\": %.6g, \"events_per_s\": %.6g, "
                   "\"events\": %" PRIu64 "}%s\n",
                   r.workload.c_str(), r.p, r.m.wall_s, r.m.rank_s_per_s(),
                   r.m.events_per_s(), r.m.events, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[json] %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
