// Tables 1 & 2 instantiated: the paper's parameter glossaries, filled in with
// this reproduction's *measured* machine-dependent vectors (both clusters,
// via the lat_mem_rd / mpptest / PowerPack-style calibration tools) and the
// *fitted* application-dependent vectors for every kernel at its class-A
// point — the concrete analogue of the vectors the paper lists in Section V.
#include <memory>

#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "npb/classes.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  bench::heading("Tables 1 & 2: calibrated machine vectors and fitted application vectors",
                 "the measured/fitted instantiation of the paper's parameter tables");

  // --- Table 1: machine-dependent parameters -------------------------------------
  util::Table t1({"parameter", "SystemG", "Dori", "definition"});
  const std::vector<std::string> vectors =
      bench::run_cases({analysis::machine_params_case(bench::with_noise(sim::system_g()), true),
                        analysis::machine_params_case(bench::with_noise(sim::dori()), true)});
  const model::MachineParams g = analysis::decode_machine_params(vectors[0]);
  const model::MachineParams d = analysis::decode_machine_params(vectors[1]);
  t1.add_row({"t_c = CPI/f (s)", util::sci(g.t_c(), 3), util::sci(d.t_c(), 3),
              "avg time per on-chip instruction"});
  t1.add_row({"CPI", util::num(g.cpi, 3), util::num(d.cpi, 3), "measured cycles/instr"});
  t1.add_row({"t_m (s)", util::sci(g.t_m, 3), util::sci(d.t_m, 3),
              "avg memory access latency (lat_mem_rd)"});
  t1.add_row({"t_s (s)", util::sci(g.t_s, 3), util::sci(d.t_s, 3),
              "message startup (mpptest)"});
  t1.add_row({"t_w (s/B)", util::sci(g.t_w, 3), util::sci(d.t_w, 3),
              "per-byte transmission (mpptest)"});
  t1.add_row({"P_idle-system (W)", util::num(g.p_sys_idle, 2), util::num(d.p_sys_idle, 2),
              "idle floor per processor"});
  t1.add_row({"dP_c (W)", util::num(g.dp_c_base, 2), util::num(d.dp_c_base, 2),
              "CPU active increment at base f"});
  t1.add_row({"dP_m (W)", util::num(g.dp_m, 2), util::num(d.dp_m, 2),
              "memory active increment"});
  t1.add_row({"dP_io (W)", util::num(g.dp_io, 2), util::num(d.dp_io, 2),
              "I/O active increment (Eq 12: ~0)"});
  t1.add_row({"gamma", util::num(g.gamma, 2), util::num(d.gamma, 2),
              "power-frequency exponent (Eq 20)"});
  t1.add_row({"f base (GHz)", util::num(g.base_ghz, 1), util::num(d.base_ghz, 1),
              "nominal frequency"});
  bench::emit(t1, "table1_machine_params");

  // --- Table 2: application-dependent parameters ----------------------------------
  std::printf("\n(application vectors at class-A size, p = 8, on SystemG)\n");
  const auto spec = bench::with_noise(sim::system_g());
  struct Case {
    std::unique_ptr<analysis::BenchmarkAdapter> adapter;
    std::vector<double> ns;
    double n;
  };
  std::vector<Case> cases;
  cases.push_back({analysis::make_adapter(npb::ep_class(npb::ProblemClass::A)),
                   {1 << 17, 1 << 18, 1 << 19}, static_cast<double>(1 << 22)});
  cases.push_back({analysis::make_adapter(npb::ft_class(npb::ProblemClass::A)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});
  cases.push_back({analysis::make_adapter(npb::cg_class(npb::ProblemClass::A)),
                   {2000, 4000, 8000}, 14000});
  cases.push_back({analysis::make_adapter(npb::is_class(npb::ProblemClass::A)),
                   {1 << 17, 1 << 18, 1 << 19}, static_cast<double>(1 << 22)});
  cases.push_back({analysis::make_adapter(npb::mg_class(npb::ProblemClass::A)),
                   {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128}, 64. * 64 * 64});
  cases.push_back({analysis::make_adapter(npb::sweep_class(npb::ProblemClass::S)),
                   {128. * 128, 256. * 256, 512. * 512}, 512. * 512});

  util::Table t2({"app", "alpha", "W_c", "W_m", "dW_oc", "dW_om", "M", "B", "T_io(s)"});
  const int calib_ps[] = {2, 4, 8};
  for (auto& c : cases) {
    analysis::EnergyStudy study(spec, std::move(c.adapter), true, bench::executor());
    study.calibrate(c.ns, calib_ps);
    const auto a = study.workload().at(c.n, 8);
    t2.add_row({study.workload().name(), util::num(a.alpha, 3), util::sci(a.W_c, 2),
                util::sci(a.W_m, 2), util::sci(a.dW_oc, 2), util::sci(a.dW_om, 2),
                util::sci(a.M, 2), util::sci(a.B, 2), util::num(a.T_io + a.T_idle, 4)});
  }
  bench::emit(t2, "table2_app_params");
  return 0;
}
