// Figure 7: EP iso-energy-efficiency surface over (p, f).
//
// Paper finding: EE hardly changes with p or f and stays close to 1 — EP has
// almost no communication, so it is near-ideal iso-energy-efficiency. (And,
// per the paper's Fig 8 discussion, scaling n cannot improve what is already
// ideal: E_o grows as fast as E_1.)
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int bench::fig07_ep_ee_pf(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::system_g());
  bench::heading("Fig 7: EP EE(p, f), fixed n",
                 "EE ~ 1 everywhere: near-ideal iso-energy-efficiency");

  const auto study = ctx.study(machine, analysis::make_adapter(npb::ep_class(npb::ProblemClass::B)),
                               {1 << 18, 1 << 19, 1 << 20}, {2, 4, 8, 16});

  const double n = 1 << 24;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double fs[] = {1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8};
  const auto surface = analysis::ee_surface_pf(study.machine_params(), study.workload(), n,
                                               ps, fs);
  ctx.emit_surface(surface, "fig07_ep_ee_pf");
  return 0;
}
