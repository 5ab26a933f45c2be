// Root-cause report: *why* is each benchmark losing energy efficiency, and
// which knob recovers it? This is the paper's Section II motivation made
// executable: Eq 16's overhead decomposition attributes E_o to message
// startups, byte transfer, compute overhead, memory overhead, and imbalance;
// a knob-sensitivity column then says what to do about it.
#include <memory>

#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "model/rootcause.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());
  bench::heading("Root-cause attribution of energy inefficiency (Eq 16 decomposed)",
                 "Section II: 'identify the root cause of energy inefficiency'");

  struct Case {
    std::unique_ptr<analysis::BenchmarkAdapter> adapter;
    std::vector<double> ns;
    double n;
  };
  std::vector<Case> cases;
  cases.push_back({analysis::make_adapter(npb::ep_class(npb::ProblemClass::B)),
                   {1 << 18, 1 << 19, 1 << 20}, static_cast<double>(1 << 24)});
  cases.push_back({analysis::make_adapter(npb::ft_class(npb::ProblemClass::B)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 128. * 128 * 128});
  cases.push_back({analysis::make_adapter(npb::cg_class(npb::ProblemClass::B)),
                   {4000, 8000, 16000}, 75000});
  cases.push_back({analysis::make_adapter(npb::mg_class(npb::ProblemClass::A)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});
  cases.push_back({analysis::make_adapter(npb::sweep_class(npb::ProblemClass::S)),
                   {128. * 128, 256. * 256, 512. * 512}, 512. * 512});

  const int calib_ps[] = {2, 4, 8};
  const int p = 64;
  const double gears[] = {2.8, 2.4, 2.0, 1.6};

  util::Table table({"app", "EE@p=64", "msg_startup_J", "bytes_J", "comp_ovh_J",
                     "mem_ovh_J", "imbalance_J", "dominant_cause", "best_knob"});
  for (auto& c : cases) {
    analysis::EnergyStudy study(machine, std::move(c.adapter), true, bench::executor());
    study.calibrate(c.ns, calib_ps);
    const auto& mp = study.machine_params();
    const auto app = study.workload().at(c.n, p);
    const auto b = model::overhead_breakdown(mp, app);
    const auto knobs = model::knob_sensitivity(mp, study.workload(), c.n, p, mp.base_ghz,
                                               gears);
    table.add_row({study.workload().name(),
                   util::num(model::ee_at(mp, study.workload(), c.n, p, mp.base_ghz), 4),
                   util::num(b.message_startup, 2), util::num(b.byte_transfer, 2),
                   util::num(b.compute_overhead, 2), util::num(b.memory_overhead, 2),
                   util::num(b.imbalance, 2), b.dominant(), knobs.best_knob});
  }
  bench::emit(table, "root_cause");
  std::printf(
      "\nReading: EP's (tiny) loss is all message startup; FT splits between the\n"
      "all-to-all (startup + bytes) and fitted memory overhead; CG is dominated by\n"
      "the gathered-vector memory/compute overhead plus transfer volume; SWEEP by\n"
      "pipeline imbalance (T_idle). 'halve-p' being the universal best knob is the\n"
      "model restating Section V.B.5: more parallelism always costs efficiency —\n"
      "the interesting decisions trade it against a deadline or power cap (see\n"
      "docs/SERVICE.md, \"Recipes\").\n");
  return 0;
}
