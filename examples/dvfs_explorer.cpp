// DVFS explorer: the paper's Section V.B.7 question — when does scaling the
// CPU frequency up or down help energy?
//
// For a chosen benchmark and processor count, runs the *full simulation* at
// every DVFS gear (the ground truth) next to the analytical model's
// prediction, reporting time, energy, EE and the energy-delay product, and
// recommends gears. CG at scale shows the paper's finding: higher f improves
// energy efficiency in the strong-scaling regime.
//
// Example:  ./build/examples/dvfs_explorer --benchmark=cg --p=32
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "analysis/study.hpp"
#include "npb/classes.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  util::Cli cli("dvfs_explorer — energy/performance across DVFS gears");
  cli.flag("benchmark", "cg", "workload: ep | ft | cg")
      .flag("p", "32", "processor count")
      .flag("machine", "system_g", "cluster preset: system_g | dori");
  if (!cli.parse(argc, argv)) return 1;

  sim::MachineSpec machine;
  try {
    machine = sim::machine_preset(cli.get("machine"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  machine.noise.enabled = true;
  const int p = static_cast<int>(cli.get_int("p"));
  const std::string bench = cli.get("benchmark");

  std::unique_ptr<analysis::BenchmarkAdapter> adapter;
  std::vector<double> calib_ns;
  double n = 0;
  if (bench == "ep") {
    adapter = analysis::make_ep_adapter(npb::ep_class(npb::ProblemClass::A));
    calib_ns = {1 << 17, 1 << 18, 1 << 19};
    n = 1 << 22;
  } else if (bench == "ft") {
    adapter = analysis::make_ft_adapter(npb::ft_class(npb::ProblemClass::A));
    calib_ns = {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128};
    n = 64. * 64 * 64;
  } else if (bench == "cg") {
    adapter = analysis::make_cg_adapter(npb::cg_class(npb::ProblemClass::A));
    calib_ns = {2000, 4000, 8000};
    n = 14000;
  } else {
    std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
    return 1;
  }

  std::printf("calibrating on %s...\n", machine.name.c_str());
  analysis::EnergyStudy study(machine, std::move(adapter));
  const int calib_ps[] = {2, 4, 8};
  study.calibrate(calib_ns, calib_ps);

  util::Table table({"f_GHz", "measured_s", "measured_J", "predicted_J", "model_EE",
                     "energy_delay"});
  double best_energy = 1e300, best_energy_f = 0;
  double best_ee = -1, best_ee_f = 0;
  for (double f : machine.cpu.gears_ghz) {
    const auto v = study.validate(n, p, f);
    const auto e = study.predict(n, p, f);
    table.add_row({util::num(f, 1), util::num(v.actual_s, 4), util::num(v.actual_j, 1),
                   util::num(v.predicted_j, 1), util::num(e.EE, 4),
                   util::num(v.actual_j * v.actual_s, 2)});
    if (v.actual_j < best_energy) {
      best_energy = v.actual_j;
      best_energy_f = f;
    }
    if (e.EE > best_ee) {
      best_ee = e.EE;
      best_ee_f = f;
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nmeasured energy-optimal gear: %.1f GHz\n", best_energy_f);
  std::printf("model EE-optimal gear:        %.1f GHz\n", best_ee_f);
  std::printf("(paper: for CG under strong scaling, scaling f *up* improves EE)\n");
  return 0;
}
