// Figure 2 (a, b): performance efficiency and energy efficiency of FT and CG
// versus processor count at a fixed problem size, *measured* from full
// simulations (PowerPack-style), exactly as the paper's motivating figure:
//
//   perf efficiency   = T1 / (p * Tp)
//   energy efficiency = E1 / Ep
//
// Expected shape: FT scales reasonably well; CG's efficiency falls faster
// (its allgather overhead grows with p). Both energy-efficiency curves sit
// below the performance curves.
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"

using namespace isoee;

namespace {

const int kPs[] = {1, 2, 4, 8, 16, 32};

/// Prints and writes one kernel's table from its runs, in kPs order.
void efficiency_table(const bench::Context& ctx, const std::string& name,
                      std::span<const std::string> runs) {
  bench::heading("Fig 2: " + name + " performance & energy efficiency vs CPUs",
                 name == "FT" ? "Fig 2a — FT scales reasonably well"
                              : "Fig 2b — CG efficiency drops off faster");
  double t1 = 0.0, e1 = 0.0;
  util::Table table({"p", "time_s", "energy_J", "perf_efficiency", "energy_efficiency"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const int p = kPs[i];
    const analysis::Measurement run = analysis::decode_measurement(runs[i]);
    const double makespan = run.time_s, energy = run.energy_j;
    if (p == 1) {
      t1 = makespan;
      e1 = energy;
    }
    const double perf_eff = t1 / (p * makespan);
    const double energy_eff = e1 / energy;
    table.add_row({util::num(p), util::num(makespan, 4), util::num(energy, 1),
                   util::num(perf_eff, 4), util::num(energy_eff, 4)});
  }
  ctx.emit(table, "fig02_" + name);
}

}  // namespace

int bench::fig02_efficiency(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::system_g());

  // FT's and CG's class-A runs at every p, as one batch.
  const std::shared_ptr<const analysis::BenchmarkAdapter> kernels[] = {
      analysis::make_adapter(npb::ft_class(npb::ProblemClass::A)),
      analysis::make_adapter(npb::cg_class(npb::ProblemClass::A))};
  std::vector<exec::Case> cases;
  for (const auto& kernel : kernels) {
    for (int p : kPs) {
      cases.push_back(analysis::measure_case(machine, kernel, kernel->default_n(), p, 0.0));
    }
  }
  const std::vector<std::string> runs = ctx.run_cases(cases);
  const std::size_t n = std::size(kPs);
  efficiency_table(ctx, "FT", std::span<const std::string>(runs).first(n));
  efficiency_table(ctx, "CG", std::span<const std::string>(runs).subspan(n, n));
  return 0;
}
