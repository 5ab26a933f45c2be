// Figure 9: CG iso-energy-efficiency surface over (p, f) at the paper's
// problem size n = 75000 (strong scaling).
//
// Paper finding: EE declines with p; in contrast to EP/FT, energy efficiency
// *increases* with CPU frequency — in this strong-scaling case users can
// scale frequency up with DVFS to achieve better energy efficiency (both E_o
// and E_1 rise with f, but E_1 rises faster).
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "npb/classes.hpp"
#include "model/isocontour.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());
  bench::heading("Fig 9: CG EE(p, f), n = 75000",
                 "EE falls with p but rises with f (DVFS up helps CG)");

  analysis::EnergyStudy study(machine,
                              analysis::make_adapter(npb::cg_class(npb::ProblemClass::B)),
                              true, bench::executor());
  const double ns_calib[] = {4000, 8000, 16000};
  const int calib_ps[] = {2, 4, 8, 16};
  study.calibrate(ns_calib, calib_ps);

  const double n = 75000;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double fs[] = {1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8};
  const auto surface = analysis::ee_surface_pf(study.machine_params(), study.workload(), n,
                                               ps, fs, bench::executor());
  bench::emit_surface(surface, "fig09_cg_ee_pf");

  // The DVFS-direction check the paper highlights: per p, does the highest
  // gear maximise EE?
  util::Table dir({"p", "best_f_for_EE", "EE_at_1.6", "EE_at_2.8", "delta"});
  for (int p : {8, 16, 32, 64, 128}) {
    const double gears[] = {2.8, 2.4, 2.0, 1.6};
    const double best = model::best_frequency_for_ee(study.machine_params(),
                                                     study.workload(), n, p, gears);
    const double lo = model::ee_at(study.machine_params(), study.workload(), n, p, 1.6);
    const double hi = model::ee_at(study.machine_params(), study.workload(), n, p, 2.8);
    dir.add_row({util::num(p), util::num(best, 1), util::num(lo, 4), util::num(hi, 4),
                 util::num(hi - lo, 4)});
  }
  std::printf("\n-- DVFS direction (paper: higher f -> higher EE for CG) --\n");
  bench::emit(dir, "fig09_dvfs_direction");
  return 0;
}
