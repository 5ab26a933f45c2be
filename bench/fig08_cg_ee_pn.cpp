// Figure 8: CG iso-energy-efficiency surface over (p, n) at f = 2.8 GHz.
//
// Paper finding: energy efficiency decreases as p increases; increasing the
// workload size n improves it.
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());
  bench::heading("Fig 8: CG EE(p, n), f = 2.8 GHz",
                 "EE falls with p, rises with n");

  analysis::EnergyStudy study(machine,
                              analysis::make_adapter(npb::cg_class(npb::ProblemClass::B)),
                              true, bench::executor());
  const double ns_calib[] = {4000, 8000, 16000};
  const int calib_ps[] = {2, 4, 8, 16};
  study.calibrate(ns_calib, calib_ps);

  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double ns[] = {7000, 14000, 35000, 75000, 150000, 300000};
  const auto surface = analysis::ee_surface_pn(study.machine_params(), study.workload(),
                                               2.8, ps, ns);
  bench::emit_surface(surface, "fig08_cg_ee_pn");
  return 0;
}
