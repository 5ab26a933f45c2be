// The "iso" in iso-energy-efficiency, demonstrated end to end: use the model
// to compute the problem-size contour n(p) that should hold EE at a target,
// then *run* the benchmark at those (n, p) points and measure EE from full
// simulations (E1 / Ep). If the model is right, the measured EE curve is flat
// at the target while the fixed-size curve decays — the paper's scalability
// decision-making loop (Section V.B) closed against ground truth.
#include <iterator>
#include <utility>
#include <vector>

#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "model/isocontour.hpp"
#include "npb/classes.hpp"

using namespace isoee;

namespace {

void maintain(const bench::Context& ctx, const analysis::EnergyStudy& study,
              const std::string& name, double target, double fixed_n, double n_lo,
              double n_hi) {
  std::printf("\n-- %s: hold EE at %.2f by scaling n with p --\n", name.c_str(), target);
  const int ps[] = {2, 4, 8, 16, 32};
  util::Table table({"p", "n_from_contour", "EE_model", "EE_measured(iso)",
                     "EE_measured(fixed n)"});

  // One batch of the parallel runs (at each contour size and at the fixed
  // size) plus the fixed size's sequential E1 baseline; then one batch of
  // the sequential baselines at the sizes the contour runs snapped to.
  std::vector<std::pair<double, int>> runs = {{fixed_n, 1}};
  // Per p: where its contour run (0 = contour unreachable) and its fixed-size
  // run sit in `runs`.
  std::vector<std::size_t> iso_run(std::size(ps), 0), fixed_run(std::size(ps), 0);
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    const double n_iso = model::required_problem_size(
        study.machine_params(), study.workload(), ps[i], study.machine_params().base_ghz,
        target, n_lo, n_hi);
    if (n_iso > 0) {
      iso_run[i] = runs.size();
      runs.emplace_back(n_iso, ps[i]);
    }
    fixed_run[i] = runs.size();
    runs.emplace_back(fixed_n, ps[i]);
  }
  const std::vector<analysis::Measurement> measured = study.measure(runs);
  std::vector<std::pair<double, int>> baselines;
  for (const std::size_t r : iso_run) {
    if (r != 0) baselines.emplace_back(measured[r].n, 1);
  }
  const std::vector<analysis::Measurement> sequential = study.measure(baselines);

  const double e1_fixed = measured[0].energy_j;
  std::size_t next_baseline = 0;
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    const int p = ps[i];
    std::string n_cell = "unreachable", model_cell = "-", iso_cell = "-";
    if (iso_run[i] != 0) {
      const analysis::Measurement& run_1 = sequential[next_baseline++];
      n_cell = util::sci(run_1.n, 2);
      model_cell = util::num(
          model::ee_at(study.machine_params(), study.workload(), run_1.n, p,
                       study.machine_params().base_ghz),
          4);
      iso_cell = util::num(run_1.energy_j / measured[iso_run[i]].energy_j, 4);
    }
    table.add_row({util::num(p), n_cell, model_cell, iso_cell,
                   util::num(e1_fixed / measured[fixed_run[i]].energy_j, 4)});
  }
  ctx.emit(table, "iso_maintenance_" + name);
}

}  // namespace

int bench::iso_maintenance(bench::Context& ctx) {
  const auto machine = ctx.with_noise(sim::system_g());
  bench::heading("Iso-EE maintenance: scale n along the model's contour n(p)",
                 "the 'iso' claim closed against measured simulations");

  const auto ft = ctx.study(machine, analysis::make_adapter(npb::ft_class(npb::ProblemClass::A)),
                            {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, {2, 4, 8});
  // n_lo = smallest calibrated size: the fitted model is not trusted below
  // its calibration range.
  maintain(ctx, ft, "FT", 0.97, 32. * 32 * 32, 32. * 32 * 32, 5e8);
  const auto cg = ctx.study(machine, analysis::make_adapter(npb::cg_class(npb::ProblemClass::A)),
                            {2000, 4000, 8000}, {2, 4, 8});
  maintain(ctx, cg, "CG", 0.85, 2000, 2000, 4e5);
  std::printf("\nReading: along the contour the measured EE column stays pinned near the\n"
              "target while the fixed-size column decays with p — maintaining iso-energy-\n"
              "efficiency by scaling the workload, the paper's core prescription.\n");
  return 0;
}
