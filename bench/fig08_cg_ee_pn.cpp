// Figure 8: CG iso-energy-efficiency surface over (p, n) at f = 2.8 GHz.
//
// Paper finding: energy efficiency decreases as p increases; increasing the
// workload size n improves it.
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int bench::fig08_cg_ee_pn(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::system_g());
  bench::heading("Fig 8: CG EE(p, n), f = 2.8 GHz",
                 "EE falls with p, rises with n");

  const auto study = ctx.study(machine, analysis::make_adapter(npb::cg_class(npb::ProblemClass::B)),
                               {4000, 8000, 16000}, {2, 4, 8, 16});

  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double ns[] = {7000, 14000, 35000, 75000, 150000, 300000};
  const auto surface = analysis::ee_surface_pn(study.machine_params(), study.workload(),
                                               2.8, ps, ns);
  ctx.emit_surface(surface, "fig08_cg_ee_pn");
  return 0;
}
