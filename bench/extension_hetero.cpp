// Extension experiment: heterogeneous clusters (the paper's stated future
// work). A partition mixes full-speed and DVFS-throttled processor classes;
// the extended model (model/hetero.hpp) predicts job time, energy, and EE
// for any workload split, and is validated against DVFS-heterogeneous
// simulations (per-rank gears).
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "model/hetero.hpp"
#include "npb/classes.hpp"
#include "util/stats.hpp"

using namespace isoee;

int bench::extension_hetero(bench::Context& ctx) {
  auto spec = ctx.with_noise(sim::system_g());
  bench::heading("Extension: heterogeneous partitions (fast + throttled classes)",
                 "future work in the paper: 'extend the current model to heterogeneous systems'");

  // Calibrate an EP workload (compute-dominated: clean class-speed contrast).
  const auto study = ctx.study(spec, analysis::make_adapter(npb::ep_class(npb::ProblemClass::A)),
                               {1 << 17, 1 << 18, 1 << 19}, {2, 4});
  const double n = 1 << 22;

  // Two classes: half the ranks at 2.8 GHz, half at 1.6 GHz.
  std::vector<model::ProcessorClass> classes(2);
  classes[0] = {"fast-2.8GHz", study.machine_params().at_frequency(2.8), 4};
  classes[1] = {"slow-1.6GHz", study.machine_params().at_frequency(1.6), 4};

  // Sweep the share given to the fast class; validate each split in the
  // simulator with per-rank gears. One case per split, keyed by the machine,
  // the shares, the instruction total and the gears; the payload is
  // {makespan, total energy}.
  const double splits[] = {0.30, 0.50, 0.64, 0.80};
  const double total_instr = study.workload().at(n, 8).W_c;
  const std::vector<double> gears = {2.8, 2.8, 2.8, 2.8, 1.6, 1.6, 1.6, 1.6};
  std::vector<exec::Case> cases;
  for (double s0 : splits) {
    const std::vector<double> shares = {s0, 1.0 - s0};
    exec::Case c;
    c.threads = sim::resolve_engine_workers(0, 8);
    c.cache_key = std::string("hetero-split\x1f") + exec::machine_fingerprint(spec) + '\x1f' +
                  exec::encode_doubles(shares) + '\x1f' + exec::encode_f64(total_instr) +
                  '\x1f' + exec::encode_doubles(gears);
    c.run = [spec, shares, total_instr, gears] {
      sim::EngineOptions opts;
      opts.per_rank_ghz = gears;
      sim::Engine eng(spec, opts);
      const auto res = eng.run(8, [&](sim::RankCtx& rank) {
        const bool fast = rank.rank() < 4;
        const double share = (fast ? shares[0] : shares[1]) / 4.0;
        rank.compute(static_cast<std::uint64_t>(total_instr * share));
      });
      return exec::encode_doubles({res.makespan, res.total_energy_j()});
    };
    cases.push_back(std::move(c));
  }
  const std::vector<std::string> runs = ctx.run_cases(cases);

  util::Table table({"fast_share", "pred_time_s", "meas_time_s", "pred_J", "meas_J",
                     "err", "EE"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double shares[] = {splits[i], 1.0 - splits[i]};
    const auto pred = model::predict_hetero(classes, study.workload(), n, shares);
    const std::vector<double> res = exec::decode_doubles(runs[i]);
    table.add_row({util::num(splits[i], 2), util::num(pred.Tp, 4), util::num(res[0], 4),
                   util::num(pred.Ep, 2), util::num(res[1], 2),
                   util::pct(util::ape(res[1], pred.Ep)), util::num(pred.EE, 4)});
  }
  ctx.emit(table, "extension_hetero_splits");

  // The model's recommendations.
  const auto balanced = model::balanced_shares(classes, study.workload(), n);
  const double best = model::best_split_for_energy(classes, study.workload(), n);
  std::printf("\nspeed-balanced fast-class share: %.3f\n", balanced[0]);
  std::printf("energy-optimal fast-class share: %.3f\n", best);
  std::printf("(speed ratio 2.8/1.6 = 1.75 -> balanced share 1.75/2.75 = 0.636)\n");

  // EE across mixed partitions for CG: does adding slow nodes ever pay?
  std::printf("\n-- CG: pure-fast vs mixed vs pure-slow partitions of 8 ranks --\n");
  const auto cg = ctx.study(spec, analysis::make_adapter(npb::cg_class(npb::ProblemClass::A)),
                            {2000, 4000, 8000}, {2, 4});
  util::Table mix({"partition", "pred_time_s", "pred_J", "EE"});
  for (auto [label, fast, slow] : {std::tuple{"8 fast", 8, 0}, std::tuple{"4+4 mixed", 4, 4},
                                   std::tuple{"8 slow", 0, 8}}) {
    std::vector<model::ProcessorClass> part;
    if (fast > 0) part.push_back({"fast", cg.machine_params().at_frequency(2.8), fast});
    if (slow > 0) part.push_back({"slow", cg.machine_params().at_frequency(1.6), slow});
    const auto pred = model::predict_hetero_balanced(part, cg.workload(), 14000);
    mix.add_row({label, util::num(pred.Tp, 4), util::num(pred.Ep, 1),
                 util::num(pred.EE, 4)});
  }
  ctx.emit(mix, "extension_hetero_partitions");
  return 0;
}
