// google-benchmark microbenchmarks of the simulator substrate itself:
// how fast the virtual-time engine executes primitive operations, message
// passing, and collectives — the cost of the simulation, not of the
// simulated machine — and of the FT, EP and CG kernels' host time (FFT plan
// passes, whole FT runs, EP's pair stream, whole EP runs, whole CG runs).
//
// Extra mode: `micro_sim --check-obs-overhead [--tolerance=0.02]` asserts the
// obs layer's contract that an *uninstalled* trace sink costs nothing beyond
// one pointer check per primitive: the same workload is timed (min of N)
// before and after a full sink install/trace/uninstall cycle, and the run
// fails if the sink-disabled runtime regressed by more than the tolerance.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/runner.hpp"
#include "npb/classes.hpp"
#include "npb/fft.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"
#include "util/rng.hpp"

using namespace isoee;

namespace {

sim::MachineSpec machine() {
  auto m = sim::system_g();
  m.noise.enabled = false;
  return m;
}

void BM_EngineComputeOps(benchmark::State& state) {
  const auto spec = machine();
  const auto ops = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine(spec);
    auto res = engine.run(1, [ops](sim::RankCtx& ctx) {
      for (std::uint64_t i = 0; i < ops; ++i) ctx.compute(1000);
    });
    benchmark::DoNotOptimize(res.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_EngineComputeOps)->Arg(1000)->Arg(10000)->Arg(100000)->MinTime(0.05);

void BM_EngineRunStartup(benchmark::State& state) {
  const auto spec = machine();
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine(spec);
    auto res = engine.run(p, [](sim::RankCtx& ctx) { ctx.compute(1); });
    benchmark::DoNotOptimize(res.makespan);
  }
}
BENCHMARK(BM_EngineRunStartup)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->MinTime(0.05);

void BM_PingPong(benchmark::State& state) {
  const auto spec = machine();
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine(spec);
    engine.run(2, [bytes](sim::RankCtx& ctx) {
      std::vector<std::byte> buf(bytes);
      for (int i = 0; i < 100; ++i) {
        if (ctx.rank() == 0) {
          ctx.send_bytes(1, 0, buf);
          ctx.recv(1, 1, std::span<std::byte>(buf));
          benchmark::DoNotOptimize(buf.data());
        } else {
          ctx.recv(0, 0, std::span<std::byte>(buf));
          ctx.send_bytes(0, 1, buf);
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 100 * 2 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PingPong)->Arg(64)->Arg(4096)->Arg(262144)->MinTime(0.05);

void BM_Allreduce(benchmark::State& state) {
  const auto spec = machine();
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine(spec);
    engine.run(p, [](sim::RankCtx& ctx) {
      smpi::Comm comm(ctx);
      std::vector<double> in(256, 1.0), out(256);
      for (int i = 0; i < 10; ++i) {
        comm.allreduce_sum(std::span<const double>(in), std::span<double>(out));
      }
    });
  }
}
BENCHMARK(BM_Allreduce)->Arg(4)->Arg(16)->Arg(64)->MinTime(0.05);

void BM_AlltoallPairwise(benchmark::State& state) {
  const auto spec = machine();
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine(spec);
    engine.run(p, [p](sim::RankCtx& ctx) {
      smpi::Comm comm(ctx);
      const std::size_t block = 256;
      std::vector<double> in(block * static_cast<std::size_t>(p), 1.0), out(in.size());
      comm.alltoall(std::span<const double>(in), std::span<double>(out), block);
    });
  }
}
BENCHMARK(BM_AlltoallPairwise)->Arg(4)->Arg(16)->Arg(64)->MinTime(0.05);

// Same engine workload with a live TraceCollector attached — the *enabled*
// tracing cost, for comparison against BM_EngineComputeOps.
void BM_EngineComputeOpsTraced(benchmark::State& state) {
  const auto spec = machine();
  const auto ops = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    obs::TraceCollector collector;
    sim::EngineOptions opts;
    opts.trace_sink = &collector;
    sim::Engine engine(spec, opts);
    auto res = engine.run(1, [ops](sim::RankCtx& ctx) {
      for (std::uint64_t i = 0; i < ops; ++i) ctx.compute(1000);
    });
    benchmark::DoNotOptimize(res.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_EngineComputeOpsTraced)->Arg(1000)->Arg(10000)->MinTime(0.05);

// --- FT host time --------------------------------------------------------------

/// An n x n plane of seeded points: FT's x pass transforms its rows, the y
/// pass its columns.
std::vector<std::complex<double>> seeded_plane(std::size_t n) {
  std::vector<std::complex<double>> plane(n * n);
  for (std::size_t i = 0; i < plane.size(); ++i) {
    plane[i] = {std::sin(0.37 * static_cast<double>(i)), std::cos(0.11 * static_cast<double>(i))};
  }
  return plane;
}

// One forward FftPlan::run per row of the plane. Each iteration restores
// the plane first (a copy of n^2 points), so values stay bounded.
void BM_FftPlanRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const npb::FftPlan& plan = npb::FftPlan::get(n);
  const std::vector<std::complex<double>> input = seeded_plane(n);
  std::vector<std::complex<double>> work(input.size());
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), work.begin());
    for (std::size_t row = 0; row < n; ++row) {
      plan.run(std::span<std::complex<double>>(work).subspan(row * n, n), false);
    }
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_FftPlanRun)->Arg(32)->Arg(64)->MinTime(0.05);

// One forward FftPlan::run_columns over the whole plane (n columns).
void BM_FftPlanColumns(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const npb::FftPlan& plan = npb::FftPlan::get(n);
  const std::vector<std::complex<double>> input = seeded_plane(n);
  std::vector<std::complex<double>> work(input.size());
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), work.begin());
    plan.run_columns(work, n, false);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_FftPlanColumns)->Arg(32)->Arg(64)->MinTime(0.05);

// A whole FT 64^3 run, 2 iterations, on p ranks: FFT passes, transposes,
// evolve and the run's scratch block.
void BM_FtRun(benchmark::State& state) {
  const auto spec = machine();
  const int p = static_cast<int>(state.range(0));
  npb::FtConfig config;
  config.nx = config.ny = config.nz = 64;
  config.iters = 2;
  for (auto _ : state) {
    const sim::RunResult res = analysis::run_ft(spec, config, p);
    benchmark::DoNotOptimize(res.makespan);
  }
}
BENCHMARK(BM_FtRun)->Arg(1)->Arg(16)->Unit(benchmark::kMillisecond)->MinTime(0.05);

// 2^20 pairs of EP's stream from the seed given as the argument (EP's): the
// two interleaved integer chains alone.
void BM_NpbPairStream(benchmark::State& state) {
  constexpr std::int64_t kPairs = 1 << 20;
  const util::NpbRandom start(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    util::NpbPairStream stream(start);
    for (std::int64_t i = 0; i < kPairs; ++i) {
      const auto [u, v] = stream.next();
      benchmark::DoNotOptimize(u);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kPairs);
}
BENCHMARK(BM_NpbPairStream)->Arg(271828183)->MinTime(0.05);

// A whole EP class W run on p ranks: the pair stream, the acceptance test
// and the allreduce.
void BM_EpRun(benchmark::State& state) {
  const auto spec = machine();
  const int p = static_cast<int>(state.range(0));
  const npb::EpConfig config = npb::ep_class(npb::ProblemClass::W);
  for (auto _ : state) {
    const sim::RunResult res = analysis::run_ep(spec, config, p);
    benchmark::DoNotOptimize(res.makespan);
  }
}
BENCHMARK(BM_EpRun)->Arg(1)->Arg(16)->Unit(benchmark::kMillisecond)->MinTime(0.05);

// A whole CG run of the class given as the first argument (0 = S, 1 = W) on
// p ranks: at p=1 the SpMV and the dot products, at p=16 mostly the
// allgather's messages.
void BM_CgRun(benchmark::State& state) {
  const auto spec = machine();
  const npb::CgConfig config =
      npb::cg_class(state.range(0) == 0 ? npb::ProblemClass::S : npb::ProblemClass::W);
  const int p = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const sim::RunResult res = analysis::run_cg(spec, config, p);
    benchmark::DoNotOptimize(res.makespan);
  }
}
BENCHMARK(BM_CgRun)
    ->Args({1, 1})
    ->Args({0, 16})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

// --- --check-obs-overhead ---------------------------------------------------

/// The timed workload: segment-rate primitives plus messaging, i.e. every
/// instrumentation point the engine owns.
double workload_seconds(const sim::MachineSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  sim::Engine engine(spec);
  engine.run(2, [](sim::RankCtx& ctx) {
    std::vector<std::byte> buf(256);
    for (int i = 0; i < 2000; ++i) {
      ctx.compute(1000);
      ctx.memory(100);
      if (ctx.rank() == 0) {
        ctx.send_bytes(1, 0, buf);
        ctx.recv(1, 1, std::span<std::byte>(buf));
      } else {
        ctx.recv(0, 0, std::span<std::byte>(buf));
        ctx.send_bytes(0, 1, buf);
      }
    }
  });
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double min_of(int n, const sim::MachineSpec& spec) {
  double best = 1e9;
  for (int i = 0; i < n; ++i) best = std::min(best, workload_seconds(spec));
  return best;
}

int check_obs_overhead(double tolerance) {
  const auto spec = machine();
  constexpr int kRepetitions = 15;

  min_of(3, spec);  // warm up allocators, code, and metric statics
  const double before_s = min_of(kRepetitions, spec);

  // Full tracing cycle: install a global sink, trace a run, uninstall.
  {
    obs::TraceCollector collector;
    obs::set_global_sink(&collector);
    workload_seconds(spec);
    obs::set_global_sink(nullptr);
    std::printf("traced cycle: %zu events collected\n", collector.size());
  }

  const double after_s = min_of(kRepetitions, spec);
  const double regression = after_s / before_s - 1.0;
  std::printf("sink-disabled workload: before %.6f s, after %.6f s, "
              "regression %+.2f%% (tolerance %.2f%%)\n",
              before_s, after_s, regression * 100.0, tolerance * 100.0);
  if (regression > tolerance) {
    std::fprintf(stderr, "FAIL: disabled-sink runtime regressed beyond tolerance\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_overhead = false;
  double tolerance = 0.02;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--check-obs-overhead") check_overhead = true;
    if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::strtod(std::string(arg.substr(12)).c_str(), nullptr);
    }
  }
  if (check_overhead) return check_obs_overhead(tolerance);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
