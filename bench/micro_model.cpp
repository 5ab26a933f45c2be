// google-benchmark microbenchmarks of the analytical layer: EE evaluation,
// surface generation, and the iso-contour solvers. These quantify the cost
// of using the model interactively (e.g. inside a scheduler's policy loop —
// the paper's Fig 1 "policy" box). BM_IsoContour64 and BM_FormatDouble are
// the two halves of a model-tier iso_contour reply: the solve, and printing
// its 192 numbers.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/surface.hpp"
#include "benchtools/calibrate.hpp"
#include "model/isocontour.hpp"
#include "model/workloads.hpp"
#include "util/table.hpp"

using namespace isoee;

namespace {

const model::MachineParams& params() {
  static const model::MachineParams p = tools::nominal_machine_params(sim::system_g());
  return p;
}

void BM_EeEvaluation(benchmark::State& state) {
  model::FtWorkload ft;
  const auto& m = params();
  int p = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::ee_at(m, ft, 64.0 * 64 * 64, p, 2.8));
    p = p == 1024 ? 2 : p * 2;
  }
}
BENCHMARK(BM_EeEvaluation);

void BM_EnergyPrediction(benchmark::State& state) {
  model::CgWorkload cg;
  model::IsoEnergyModel m(params());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.predict_energy(cg.at(75000, 64)).Ep);
  }
}
BENCHMARK(BM_EnergyPrediction);

void BM_SurfaceGeneration(benchmark::State& state) {
  model::CgWorkload cg;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const double fs[] = {1.6, 2.0, 2.4, 2.8};
  exec::Executor serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::ee_surface_pf(params(), cg, 75000, ps, fs, serial).ee.size());
  }
}
BENCHMARK(BM_SurfaceGeneration);

void BM_IsoContourSolve(benchmark::State& state) {
  model::FtWorkload ft;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::required_problem_size(params(), ft, 64, 2.8, 0.9, 1e3, 1e12));
  }
}
BENCHMARK(BM_IsoContourSolve);

void BM_MaxProcessorsSolve(benchmark::State& state) {
  model::CgWorkload cg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::max_processors(params(), cg, 75000, 2.8, 0.8, 4096));
  }
}
BENCHMARK(BM_MaxProcessorsSolve);

/// 64 processor counts, the protocol's array limit.
std::vector<int> contour_ps() {
  std::vector<int> ps;
  for (int k = 0; k < 64; ++k) ps.push_back(3 + 2 * k);
  return ps;
}

/// One iso_contour request as the service answers it: 64 processor counts,
/// bracket 1e2-1e10, at the base gear; the app (FT, EP, IS) and the target
/// (0.3-0.9) rotate per iteration.
void BM_IsoContour64(benchmark::State& state) {
  const model::FtWorkload ft;
  const model::EpWorkload ep;
  const model::IsWorkload is;
  const model::WorkloadModel* apps[] = {&ft, &ep, &is};
  const std::vector<int> ps = contour_ps();
  const auto& m = params();
  int i = 0;
  for (auto _ : state) {
    const double target = 0.3 + 0.6 * static_cast<double>(i % 7) / 6.0;
    benchmark::DoNotOptimize(
        model::iso_ee_contour(m, *apps[i % 3], target, ps, m.base_ghz, 1e2, 1e10).data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_IsoContour64);

/// The 192 numbers of one 64-point contour reply (p, n, ee per point).
const std::vector<double>& contour_numbers() {
  static const std::vector<double> values = [] {
    std::vector<double> v;
    const model::FtWorkload ft;
    const std::vector<int> ps = contour_ps();
    for (const model::ContourPoint& pt :
         model::iso_ee_contour(params(), ft, 0.5, ps, params().base_ghz, 1e2, 1e10)) {
      v.insert(v.end(), {double(pt.p), pt.n, pt.ee});
    }
    return v;
  }();
  return values;
}

/// util::append_num17 (std::to_chars), which the service and every text
/// serializer print through.
void BM_FormatDouble(benchmark::State& state) {
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (double v : contour_numbers()) util::append_num17(out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(contour_numbers().size()));
}
BENCHMARK(BM_FormatDouble);

/// The same bytes through snprintf("%.17g"), the path append_num17 replaced.
void BM_FormatDoublePrintf(benchmark::State& state) {
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (double v : contour_numbers()) {
      char buf[32];
      const int len = std::snprintf(buf, sizeof buf, "%.17g", v);
      out.append(buf, static_cast<std::size_t>(len));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(contour_numbers().size()));
}
BENCHMARK(BM_FormatDoublePrintf);

}  // namespace

BENCHMARK_MAIN();
