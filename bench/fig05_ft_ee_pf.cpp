// Figure 5: FT iso-energy-efficiency surface over (p, f) at a fixed workload
// size. Machine vector calibrated on SystemG; FT workload fitted from small
// runs; the surface is the analytical EE (Eq 21).
//
// Paper finding: the level of parallelism p dominates — frequency has little
// impact (FT is all-to-all bound); EE falls as p grows.
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());
  bench::heading("Fig 5: FT EE(p, f), fixed n",
                 "p dominates; f has little impact; EE drops as p scales");

  analysis::EnergyStudy study(machine,
                              analysis::make_adapter(npb::ft_class(npb::ProblemClass::B)),
                              true, bench::executor());
  const double ns[] = {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128};
  const int calib_ps[] = {2, 4, 8, 16};
  study.calibrate(ns, calib_ps);

  const double n = 128. * 128 * 128;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double fs[] = {1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8};
  const auto surface = analysis::ee_surface_pf(study.machine_params(), study.workload(), n,
                                               ps, fs);
  bench::emit_surface(surface, "fig05_ft_ee_pf");
  return 0;
}
