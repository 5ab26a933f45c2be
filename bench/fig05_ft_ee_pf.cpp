// Figure 5: FT iso-energy-efficiency surface over (p, f) at a fixed workload
// size. Machine vector calibrated on SystemG; FT workload fitted from small
// runs; the surface is the analytical EE (Eq 21).
//
// Paper finding: the level of parallelism p dominates — frequency has little
// impact (FT is all-to-all bound); EE falls as p grows.
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int bench::fig05_ft_ee_pf(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::system_g());
  bench::heading("Fig 5: FT EE(p, f), fixed n",
                 "p dominates; f has little impact; EE drops as p scales");

  const auto study = ctx.study(machine, analysis::make_adapter(npb::ft_class(npb::ProblemClass::B)),
                               {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, {2, 4, 8, 16});

  const double n = 128. * 128 * 128;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double fs[] = {1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8};
  const auto surface = analysis::ee_surface_pf(study.machine_params(), study.workload(), n,
                                               ps, fs);
  ctx.emit_surface(surface, "fig05_ft_ee_pf");
  return 0;
}
