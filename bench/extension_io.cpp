// Extension experiment: the I/O path (T_io, DeltaP_io). The paper's codes
// leave I/O at ~0 and it notes users can plug specific I/O components into
// Eqs 5-9; the CKPT application exercises exactly that. This harness
// validates the model with disks active and shows how checkpoint frequency
// moves the energy bill.
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "npb/ckpt.hpp"
#include "analysis/runner.hpp"
#include "util/stats.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  auto spec = bench::with_noise(sim::system_g());
  spec.power.io_delta_w = 8.0;  // active disk draw per core slot
  bench::heading("Extension: I/O-intensive workload (CKPT) through the T_io path",
                 "the paper's Eq 5-9 I/O terms, exercised instead of left at ~0");

  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::CkptConfig()), true,
                              bench::executor());
  const double ns[] = {1 << 17, 1 << 18, 1 << 19};
  const int calib_ps[] = {2, 4, 8};
  study.calibrate(ns, calib_ps);

  // Validation across p with I/O active.
  util::Table table({"p", "actual_J", "predicted_J", "error", "io_share_of_T"});
  std::vector<double> errors;
  for (int p : {1, 2, 4, 8, 16, 32}) {
    const auto v = study.validate(1 << 21, p);
    errors.push_back(v.error_pct);
    const auto app = study.workload().at(v.n, p);
    const auto perf = study.predict_performance(v.n, p);
    const double io_share = app.T_io / (app.T_io > 0 ? (perf.Tp * p / app.alpha) : 1.0);
    table.add_row({util::num(p), util::num(v.actual_j, 1), util::num(v.predicted_j, 1),
                   util::pct(v.error_pct), util::pct(100.0 * io_share)});
  }
  bench::emit(table, "extension_io_validation");
  std::printf("mean error with I/O active: %s\n", util::pct(util::mean(errors)).c_str());

  // Checkpoint-period sweep: the durability/energy trade. One case per
  // period, keyed by the machine and the run's whole config; the payload is
  // {makespan, total energy, I/O energy}.
  std::printf("\n-- checkpoint period vs energy (measured, p = 8, n = 2^21) --\n");
  const int p = 8;
  const int periods[] = {2, 5, 10, 20};
  std::vector<exec::Case> cases;
  for (int every : periods) {
    npb::CkptConfig cfg;
    cfg.elements = 1 << 21;
    cfg.iterations = 20;
    cfg.ckpt_every = every;
    exec::Case c;
    c.threads = sim::resolve_engine_workers(0, p);
    c.cache_key = std::string("ckpt-period\x1f") + exec::machine_fingerprint(spec) + '\x1f' +
                  analysis::make_adapter(cfg)->fingerprint() + '\x1f' + std::to_string(p);
    c.run = [spec, cfg, p] {
      const auto run = analysis::run_ckpt(spec, cfg, p);
      return exec::encode_doubles({run.makespan, run.total_energy_j(), run.energy.io});
    };
    cases.push_back(std::move(c));
  }
  const std::vector<std::string> runs = bench::run_cases(cases);
  util::Table sweep({"ckpt_every", "checkpoints", "time_s", "energy_J", "io_J"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::vector<double> run = exec::decode_doubles(runs[i]);
    sweep.add_row({util::num(periods[i]), util::num(20 / periods[i]), util::num(run[0], 4),
                   util::num(run[1], 1), util::num(run[2], 1)});
  }
  bench::emit(sweep, "extension_io_period");
  std::printf("\nReading: more frequent checkpoints inflate T_io and the idle-floor\n"
              "energy spent waiting on the disk — the model's T_io * (P_idle + dP_io)\n"
              "terms capture the cost before the job runs.\n");
  return 0;
}
