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
#include "bench/common.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::dori());
  bench::heading("Fig 3: energy model validation on Dori (p = 4)",
                 "actual vs predicted total energy; accuracy > 95% for all codes");

  struct Case {
    std::string name;
    std::unique_ptr<analysis::BenchmarkAdapter> adapter;
    std::vector<double> calib_ns;
    double validate_n;
  };
  std::vector<Case> cases;
  cases.push_back({"EP", analysis::make_adapter(npb::ep_class(npb::ProblemClass::W)),
                   {1 << 17, 1 << 18, 1 << 19}, static_cast<double>(1 << 21)});
  cases.push_back({"FT", analysis::make_adapter(npb::ft_class(npb::ProblemClass::W)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});
  cases.push_back({"CG", analysis::make_adapter(npb::cg_class(npb::ProblemClass::W)),
                   {1000, 2000, 4000}, 7000});
  cases.push_back({"IS", analysis::make_adapter(npb::is_class(npb::ProblemClass::W)),
                   {1 << 17, 1 << 18, 1 << 19}, static_cast<double>(1 << 21)});
  // MG calibration grids all support the pinned 3-level hierarchy, keeping
  // the fitted halo-communication coefficients consistent across sizes.
  cases.push_back({"MG", analysis::make_adapter(npb::mg_class(npb::ProblemClass::W)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});

  const int calib_ps[] = {2, 4};
  util::Table table({"benchmark", "n", "actual_J", "predicted_J", "error", "accuracy"});
  for (auto& c : cases) {
    analysis::EnergyStudy study(machine, std::move(c.adapter), /*measured_calibration=*/true,
                                bench::executor());
    study.calibrate(c.calib_ns, calib_ps);
    const auto v = study.validate(c.validate_n, /*p=*/4);
    table.add_row({c.name, util::num(v.n, 0), util::num(v.actual_j, 1),
                   util::num(v.predicted_j, 1), util::pct(v.error_pct),
                   util::pct(100.0 - v.error_pct)});
  }
  bench::emit(table, "fig03_validation_dori");
  return 0;
}
