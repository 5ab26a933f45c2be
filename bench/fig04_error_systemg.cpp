// Figure 4: average energy-prediction error of EP, FT and CG on SystemG over
// p = 1, 2, 4, 8, 16, 32, 64, 128 (InfiniBand interconnect). Machine
// parameters are calibrated with the microbenchmark tools; workload vectors
// are fitted from small calibration runs; every (benchmark, p) point is then
// validated against a full noisy simulation.
//
// Paper result: EP 6.64 %, FT 4.99 %, CG 8.31 % average error — single-digit
// errors with CG the worst (memory-model limitations).
#include <memory>
#include <vector>

#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "npb/classes.hpp"
#include "util/stats.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());
  bench::heading("Fig 4: average model error on SystemG (p = 1..128, class B)",
                 "EP 6.64%, FT 4.99%, CG 8.31% in the paper; CG worst");

  struct Case {
    std::string name;
    std::unique_ptr<analysis::BenchmarkAdapter> adapter;
    std::vector<double> calib_ns;
    double validate_n;
  };
  std::vector<Case> cases;
  cases.push_back({"EP", analysis::make_adapter(npb::ep_class(npb::ProblemClass::B)),
                   {1 << 18, 1 << 19, 1 << 20}, static_cast<double>(1 << 24)});
  cases.push_back({"FT", analysis::make_adapter(npb::ft_class(npb::ProblemClass::B)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 128. * 128 * 128});
  cases.push_back({"CG", analysis::make_adapter(npb::cg_class(npb::ProblemClass::B)),
                   {4000, 8000, 16000}, 75000});

  const int calib_ps[] = {2, 4, 8, 16};
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128};

  util::Table per_point({"benchmark", "p", "actual_J", "predicted_J", "error"});
  util::Table summary({"benchmark", "avg_error", "max_error", "paper_avg_error"});
  const char* paper_err[] = {"6.64%", "4.99%", "8.31%"};
  int case_idx = 0;
  for (auto& c : cases) {
    analysis::EnergyStudy study(machine, std::move(c.adapter), true, bench::executor());
    study.calibrate(c.calib_ns, calib_ps);
    std::vector<double> errors;
    for (int p : ps) {
      const auto v = study.validate(c.validate_n, p);
      errors.push_back(v.error_pct);
      per_point.add_row({c.name, util::num(p), util::num(v.actual_j, 1),
                         util::num(v.predicted_j, 1), util::pct(v.error_pct)});
    }
    const auto s = util::summarize(errors);
    summary.add_row({c.name, util::pct(s.mean), util::pct(s.max), paper_err[case_idx]});
    ++case_idx;
  }
  bench::emit(per_point, "fig04_error_points");
  std::printf("\n-- average error per benchmark --\n");
  bench::emit(summary, "fig04_error_summary");
  return 0;
}
