// Extension experiment: communication-phase DVFS — the opportunity the
// paper's related work (Freeh et al., Ge et al.) exploits with runtime
// controllers, reproduced here on the simulated cluster and *bounded in
// advance* by the analytical model (the paper's core pitch: make power
// management quantitative instead of a black art).
//
// Setup: MPI progress engines busy-poll, so a configurable fraction of the
// CPU active power burns during communication waits (net_poll_cpu_factor;
// the paper's Eq 12 assumes 0 and is the library default). The experiment
// runs FT with every collective dropped to a low gear (GearScope) and
// compares measured time/energy against both the full-gear run and the
// model's predicted impact.
#include "analysis/runner.hpp"
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  // Dori's 1 Gb/s Ethernet makes FT communication-dominant — the regime the
  // related-work controllers were built for.
  auto machine = bench::with_noise(sim::dori());
  machine.power.net_poll_cpu_factor = 0.7;  // busy-polling MPI progress engine
  bench::heading("Extension: communication-phase DVFS on FT (busy-poll power on)",
                 "related-work controllers (Freeh/Ge) save comm-phase energy; the "
                 "model bounds the effect beforehand");

  const int p = 16;
  auto config = npb::ft_class(npb::ProblemClass::A);

  util::Table table({"comm_gear_GHz", "time_s", "energy_J", "slowdown", "energy_saved"});
  double base_time = 0.0, base_energy = 0.0;
  for (double gear : {0.0, 1.6, 1.2, 1.0}) {  // 0 = no controller
    config.collectives.comm_gear_ghz = gear;
    const auto run = analysis::run_ft(machine, config, p);
    if (gear == 0.0) {
      base_time = run.makespan;
      base_energy = run.total_energy_j();
    }
    table.add_row({gear == 0.0 ? "off" : util::num(gear, 1), util::num(run.makespan, 4),
                   util::num(run.total_energy_j(), 1),
                   util::pct(100.0 * (run.makespan / base_time - 1.0)),
                   util::pct(100.0 * (1.0 - run.total_energy_j() / base_energy))});
  }
  bench::emit(table, "ablation_comm_dvfs");

  // Model-side prediction of the same effect: communication runs at the low
  // gear (f_comm_ghz), computation stays at base.
  analysis::EnergyStudy study(machine, analysis::make_ft_adapter(config), true,
                              bench::exec_config());
  const double ns[] = {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128};
  const int calib_ps[] = {2, 4, 8};
  study.calibrate(ns, calib_ps);

  const double n = 64. * 64 * 64;
  util::Table model_table({"comm_gear_GHz", "predicted_J", "predicted_saving"});
  auto params = study.machine_params();
  model::IsoEnergyModel base_model(params);
  const double base_pred = base_model.predict_energy(study.workload().at(n, p)).Ep;
  for (double gear : {2.0, 1.6, 1.2, 1.0}) {
    auto at_gear = params;
    at_gear.f_comm_ghz = gear;
    model::IsoEnergyModel m(at_gear);
    const double pred = m.predict_energy(study.workload().at(n, p)).Ep;
    model_table.add_row({util::num(gear, 1), util::num(pred, 1),
                         util::pct(100.0 * (1.0 - pred / base_pred))});
  }
  std::printf("\n-- model-predicted effect (poll power during T_net at the comm gear) --\n");
  bench::emit(model_table, "ablation_comm_dvfs_model");
  std::printf("\nReading: dropping the gear only during collectives saves energy with\n"
              "negligible slowdown (communication time is frequency-independent), and\n"
              "the model predicts the saving before any controller runs — the paper's\n"
              "quantitative-policy vision.\n");
  return 0;
}
