// Figure 6: FT iso-energy-efficiency surface over (p, n) at the base
// frequency f = 2.8 GHz (frequency barely matters for FT, per Fig 5).
//
// Paper finding: p still dominates the variance; increasing the problem size
// n clearly improves energy efficiency.
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int bench::fig06_ft_ee_pn(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::system_g());
  bench::heading("Fig 6: FT EE(p, n), f = 2.8 GHz",
                 "larger n raises EE; larger p lowers it");

  const auto study = ctx.study(machine, analysis::make_adapter(npb::ft_class(npb::ProblemClass::B)),
                               {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, {2, 4, 8, 16});

  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double ns[] = {32. * 32 * 32,   64. * 64 * 64,    128. * 128 * 128,
                       256. * 256 * 256, 512. * 512 * 512};
  const auto surface = analysis::ee_surface_pn(study.machine_params(), study.workload(),
                                               2.8, ps, ns);
  ctx.emit_surface(surface, "fig06_ft_ee_pn");
  return 0;
}
