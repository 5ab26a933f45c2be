// Baseline comparison: iso-energy-efficiency vs the two prior metrics the
// paper positions itself against (Section II):
//
//   * Grama et al. performance isoefficiency (performance-only),
//   * Ge & Cameron power-aware speedup (energy-aware but coarse).
//
// The sweep shows where the metrics disagree: performance efficiency misses
// energy overheads that EE captures (idle energy during communication), and
// power-aware speedup orders DVFS gears without exposing the component-level
// cause. The iso-problem-size columns contrast "n needed to hold performance
// efficiency" with "n needed to hold EE".
#include "analysis/baselines.hpp"
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "model/isocontour.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());
  bench::heading("Baseline comparison: perf isoefficiency / power-aware speedup / EE",
                 "Section II positioning of the iso-energy-efficiency model");

  analysis::EnergyStudy study(machine,
                              analysis::make_adapter(npb::cg_class(npb::ProblemClass::B)),
                              true, bench::executor());
  const double ns[] = {4000, 8000, 16000};
  const int calib_ps[] = {2, 4, 8};
  study.calibrate(ns, calib_ps);

  const double n = 75000;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const auto rows = analysis::baseline_sweep(study.machine_params(), study.workload(), n,
                                             ps, 2.8);
  util::Table table({"p", "perf_efficiency", "power_aware_speedup", "iso_energy_efficiency"});
  for (const auto& row : rows) {
    table.add_row({util::num(row.p), util::num(row.perf_eff, 4),
                   util::num(row.pa_speedup, 2), util::num(row.ee, 4)});
  }
  bench::emit(table, "baseline_sweep");

  // Classic speedup laws at the model's effective serial fraction: the
  // Section II.B lineage (Amdahl -> Gustafson -> Sun-Ni) next to the
  // model's own speedup.
  std::printf("\n-- classic speedup laws at the model's effective serial fraction --\n");
  util::Table laws({"p", "eff_serial_frac", "amdahl", "gustafson", "sun_ni_k0.5",
                    "model_speedup"});
  for (int p : {4, 16, 64, 128}) {
    const double s_eff =
        analysis::effective_serial_fraction(study.machine_params(), study.workload(), n, p);
    model::IsoEnergyModel m(study.machine_params());
    laws.add_row({util::num(p), util::num(s_eff, 4),
                  util::num(analysis::amdahl_speedup(s_eff, p), 2),
                  util::num(analysis::gustafson_speedup(s_eff, p), 2),
                  util::num(analysis::sun_ni_speedup(s_eff, p, 0.5), 2),
                  util::num(m.predict_performance(study.workload().at(n, p)).speedup, 2)});
  }
  bench::emit(laws, "baseline_speedup_laws");

  std::printf("\n-- problem size needed to hold each metric at 0.70 (CG) --\n");
  util::Table contour({"p", "n_for_perf_eff_0.70", "n_for_EE_0.70"});
  for (int p : {8, 16, 32, 64}) {
    const double n_perf = analysis::isoefficiency_problem_size(
        study.machine_params(), study.workload(), p, 0.70, 1e3, 1e10);
    const double n_ee = model::required_problem_size(study.machine_params(),
                                                     study.workload(), p, 2.8, 0.70, 1e3, 1e10);
    auto fmt = [](double v) { return v > 0 ? util::sci(v, 2) : std::string("unreachable"); };
    contour.add_row({util::num(p), fmt(n_perf), fmt(n_ee)});
  }
  bench::emit(contour, "baseline_contours");
  std::printf(
      "\nReading: at a fixed frequency the two efficiency notions track each other\n"
      "closely (the same overheads inflate both time and energy), so their\n"
      "iso-contours nearly coincide — and CG's strong-scaling overhead floor makes\n"
      "both unreachable past a point regardless of n. What performance\n"
      "isoefficiency cannot express at all is the frequency axis and the\n"
      "component-level cause of the loss; the EE model adds exactly that\n"
      "(see fig09's DVFS-direction table and the Eq 19 decomposition).\n");
  return 0;
}
