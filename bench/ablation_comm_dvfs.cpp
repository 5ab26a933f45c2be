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
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int bench::ablation_comm_dvfs(bench::Context& ctx) {
  // Dori's 1 Gb/s Ethernet makes FT communication-dominant — the regime the
  // related-work controllers were built for.
  auto machine = ctx.with_noise(sim::dori());
  machine.power.net_poll_cpu_factor = 0.7;  // busy-polling MPI progress engine
  bench::heading("Extension: communication-phase DVFS on FT (busy-poll power on)",
                 "related-work controllers (Freeh/Ge) save comm-phase energy; the "
                 "model bounds the effect beforehand");

  const int p = 16;
  auto config = npb::ft_class(npb::ProblemClass::A);

  // One FT class-A run per comm gear (0 = no controller), as one batch. The
  // gear is part of the adapter's fingerprint, so each run caches apart.
  const double gears[] = {0.0, 1.6, 1.2, 1.0};
  std::vector<exec::Case> cases;
  for (double gear : gears) {
    config.collectives.comm_gear_ghz = gear;
    cases.push_back(analysis::measure_case(machine, analysis::make_adapter(config),
                                           static_cast<double>(config.total_points()), p, 0.0));
  }
  const std::vector<std::string> runs = ctx.run_cases(cases);

  util::Table table({"comm_gear_GHz", "time_s", "energy_J", "slowdown", "energy_saved"});
  const analysis::Measurement base = analysis::decode_measurement(runs[0]);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const analysis::Measurement run = analysis::decode_measurement(runs[i]);
    table.add_row({gears[i] == 0.0 ? "off" : util::num(gears[i], 1), util::num(run.time_s, 4),
                   util::num(run.energy_j, 1),
                   util::pct(100.0 * (run.time_s / base.time_s - 1.0)),
                   util::pct(100.0 * (1.0 - run.energy_j / base.energy_j))});
  }
  ctx.emit(table, "ablation_comm_dvfs");

  // Model-side prediction of the same effect: communication runs at the low
  // gear (f_comm_ghz), computation stays at base.
  const auto study = ctx.study(machine, analysis::make_adapter(config),
                               {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, {2, 4, 8});

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
  ctx.emit(model_table, "ablation_comm_dvfs_model");
  std::printf("\nReading: dropping the gear only during collectives saves energy with\n"
              "negligible slowdown (communication time is frequency-independent), and\n"
              "the model predicts the saving before any controller runs — the paper's\n"
              "quantitative-policy vision.\n");
  return 0;
}
