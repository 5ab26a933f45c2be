// Ablation: the computational-overlap factor alpha (paper Section VI.F).
//
// The paper argues alpha cannot be ignored (it criticises Ding et al. for
// assuming no overlap). This harness quantifies that: energy-prediction
// error across benchmarks and rank counts with (a) the measured alpha and
// (b) alpha forced to 1 (no-overlap assumption).
#include <memory>
#include <vector>

#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"
#include "util/stats.hpp"

using namespace isoee;

namespace {

/// Wraps a fitted workload with alpha overridden to 1.
class NoOverlap final : public model::WorkloadModel {
 public:
  explicit NoOverlap(const model::WorkloadModel& inner) : inner_(&inner) {}
  model::AppParams at(double n, int p) const override {
    auto a = inner_->at(n, p);
    a.alpha = 1.0;
    return a;
  }
  std::string name() const override { return inner_->name() + "-noalpha"; }

 private:
  const model::WorkloadModel* inner_;
};

}  // namespace

int bench::ablation_overlap(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::system_g());
  bench::heading("Ablation: overlap factor alpha vs alpha = 1",
                 "the paper's Section VI.F: overlap cannot be ignored");

  std::vector<bench::Kernel> cases;
  cases.push_back({analysis::make_adapter(npb::ft_class(npb::ProblemClass::A)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});
  cases.push_back({analysis::make_adapter(npb::cg_class(npb::ProblemClass::A)),
                   {2000, 4000, 8000}, 14000});

  const std::vector<int> calib_ps = {2, 4, 8};
  util::Table table({"benchmark", "alpha_measured", "avg_err_with_alpha",
                     "avg_err_alpha_1"});
  for (auto& c : cases) {
    const auto study = ctx.study(machine, std::move(c.adapter), c.calib_ns, calib_ps);
    const NoOverlap no_alpha(study.workload());

    std::vector<double> err_with, err_without;
    for (int p : {1, 4, 16, 32}) {
      const auto v = study.validate(c.n, p);
      err_with.push_back(v.error_pct);
      // Re-predict with alpha = 1 against the same measured energy.
      model::IsoEnergyModel m(study.machine_params());
      const double pred = m.predict_energy(no_alpha.at(v.n, p)).Ep;
      err_without.push_back(util::ape(v.actual_j, pred));
    }
    const double alpha = study.workload().at(c.n, 1).alpha;
    table.add_row({study.adapter().name(), util::num(alpha, 3), util::pct(util::mean(err_with)),
                   util::pct(util::mean(err_without))});
  }
  ctx.emit(table, "ablation_overlap");
  std::printf("\nReading: dropping alpha (assuming zero overlap) inflates the error by\n"
              "roughly the amount of hidden memory time — the paper's justification for\n"
              "modelling computational overlap explicitly.\n");
  return 0;
}
