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
#include "analysis/runner.hpp"
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "npb/classes.hpp"

using namespace isoee;

namespace {

const int kPs[] = {1, 2, 4, 8, 16, 32};

template <typename Config>
using Runner = sim::RunResult (*)(const sim::MachineSpec&, const Config&, int,
                                  const analysis::RunOptions&);

/// One run per p as keyed cases: the key is the machine, the kernel config
/// (its adapter's fingerprint) and p; the payload is {makespan, total energy}.
template <typename Config>
void add_cases(std::vector<exec::Case>& cases, const sim::MachineSpec& machine,
               const Config& config, Runner<Config> runner) {
  const std::string prefix = std::string("fig02\x1f") + exec::machine_fingerprint(machine) +
                             '\x1f' + analysis::make_adapter(config)->fingerprint() + '\x1f';
  for (int p : kPs) {
    exec::Case c;
    c.threads = sim::resolve_engine_workers(0, p);
    c.cache_key = prefix + std::to_string(p);
    c.run = [machine, config, runner, p] {
      const sim::RunResult run = runner(machine, config, p, {});
      return exec::encode_doubles({run.makespan, run.total_energy_j()});
    };
    cases.push_back(std::move(c));
  }
}

/// Prints and writes one kernel's table from its runs, in kPs order.
void efficiency_table(const std::string& name, std::span<const std::string> runs) {
  bench::heading("Fig 2: " + name + " performance & energy efficiency vs CPUs",
                 name == "FT" ? "Fig 2a — FT scales reasonably well"
                              : "Fig 2b — CG efficiency drops off faster");
  double t1 = 0.0, e1 = 0.0;
  util::Table table({"p", "time_s", "energy_J", "perf_efficiency", "energy_efficiency"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const int p = kPs[i];
    const std::vector<double> run = exec::decode_doubles(runs[i]);
    const double makespan = run.at(0), energy = run.at(1);
    if (p == 1) {
      t1 = makespan;
      e1 = energy;
    }
    const double perf_eff = t1 / (p * makespan);
    const double energy_eff = e1 / energy;
    table.add_row({util::num(p), util::num(makespan, 4), util::num(energy, 1),
                   util::num(perf_eff, 4), util::num(energy_eff, 4)});
  }
  bench::emit(table, "fig02_" + name);
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());

  // FT's and CG's class-A runs at every p, as one batch.
  std::vector<exec::Case> cases;
  add_cases(cases, machine, npb::ft_class(npb::ProblemClass::A), &analysis::run_ft);
  add_cases(cases, machine, npb::cg_class(npb::ProblemClass::A), &analysis::run_cg);
  const std::vector<std::string> runs = bench::run_cases(cases);
  const std::size_t n = std::size(kPs);
  efficiency_table("FT", std::span<const std::string>(runs).first(n));
  efficiency_table("CG", std::span<const std::string>(runs).subspan(n, n));
  return 0;
}
