// Figure 3: energy-model validation on the Dori cluster (Ethernet,
// dual-dual-core Opterons). All benchmarks run on 4 processors at the base
// frequency; the table compares actual (full noisy simulation, the
// "PowerPack measurement") against the analytical model's prediction
// (Eq 15 with calibrated machine parameters and fitted workload vectors).
//
// Paper result: model accuracy over 95 % for every benchmark.
#include <memory>
#include <vector>

#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int bench::fig03_validation_dori(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::dori());
  bench::heading("Fig 3: energy model validation on Dori (p = 4)",
                 "actual vs predicted total energy; accuracy > 95% for all codes");

  std::vector<bench::Kernel> cases;
  cases.push_back({analysis::make_adapter(npb::ep_class(npb::ProblemClass::W)),
                   {1 << 17, 1 << 18, 1 << 19}, static_cast<double>(1 << 21)});
  cases.push_back({analysis::make_adapter(npb::ft_class(npb::ProblemClass::W)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});
  cases.push_back({analysis::make_adapter(npb::cg_class(npb::ProblemClass::W)),
                   {1000, 2000, 4000}, 7000});
  cases.push_back({analysis::make_adapter(npb::is_class(npb::ProblemClass::W)),
                   {1 << 17, 1 << 18, 1 << 19}, static_cast<double>(1 << 21)});
  // MG calibration grids all support the pinned 3-level hierarchy, keeping
  // the fitted halo-communication coefficients consistent across sizes.
  cases.push_back({analysis::make_adapter(npb::mg_class(npb::ProblemClass::W)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});

  const std::vector<int> calib_ps = {2, 4};
  util::Table table({"benchmark", "n", "actual_J", "predicted_J", "error", "accuracy"});
  for (auto& c : cases) {
    const auto study = ctx.study(machine, std::move(c.adapter), c.calib_ns, calib_ps);
    const auto v = study.validate(c.n, /*p=*/4);
    table.add_row({study.adapter().name(), util::num(v.n, 0), util::num(v.actual_j, 1),
                   util::num(v.predicted_j, 1), util::pct(v.error_pct),
                   util::pct(100.0 - v.error_pct)});
  }
  ctx.emit(table, "fig03_validation_dori");
  return 0;
}
