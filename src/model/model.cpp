#include "model/model.hpp"

#include <algorithm>

namespace isoee::model {

PerfPrediction IsoEnergyModel::predict_performance(const AppParams& app) const {
  PerfPrediction perf;
  const double t_c = t_c_;
  const double t_m = machine_.t_m;

  // Sequential: T1 = alpha * (W_c t_c + W_m t_m + T_io)   (Eqs 5-6, 10).
  perf.T1 = app.alpha * (app.W_c * t_c + app.W_m * t_m + app.T_io);

  // Parallel: total issued work including parallel overheads and network
  // time, balanced over p ranks, shrunk by the same overlap factor (the
  // paper finds alpha constant across p for a given code+machine). Fitted
  // overhead terms may be negative (caching effects); the physical workload
  // sums cannot be.
  perf.T_net = network_time(app);
  const double Wc_p = std::max(0.0, app.W_c + app.dW_oc);
  const double Wm_p = std::max(0.0, app.W_m + app.dW_om);
  const double total_issued = Wc_p * t_c + Wm_p * t_m + perf.T_net + app.T_io;
  const int p = std::max(1, app.p);
  perf.Tp = (app.alpha * total_issued + app.T_idle) / static_cast<double>(p);

  perf.speedup = perf.Tp > 0.0 ? perf.T1 / perf.Tp : 0.0;
  perf.perf_efficiency = perf.speedup / static_cast<double>(p);
  return perf;
}

EnergyPrediction IsoEnergyModel::predict_energy(const AppParams& app) const {
  EnergyPrediction e;
  const double t_c = t_c_;
  const double t_m = machine_.t_m;
  const double dp_c = dp_c_;

  // Sequential energy (Eq 13):
  //   E1 = alpha*T1 * P_idle-system + W_c t_c dP_c + W_m t_m dP_m + T_io dP_io.
  const double T1_issued = app.W_c * t_c + app.W_m * t_m + app.T_io;
  e.E1 = app.alpha * T1_issued * machine_.p_sys_idle + app.W_c * t_c * dp_c +
         app.W_m * t_m * machine_.dp_m + app.T_io * machine_.dp_io;

  // Parallel energy (Eq 15): the idle floor runs on every processor for the
  // whole (balanced) execution — total processor-seconds = alpha * total
  // issued time — while activity increments accrue over issued component
  // times, which parallelisation inflates by the dW_* overheads (clamped so
  // fitted negative overheads cannot drive a workload below zero).
  const double T_net = network_time(app);
  const double Wc_p = std::max(0.0, app.W_c + app.dW_oc);
  const double Wm_p = std::max(0.0, app.W_m + app.dW_om);
  const double total_issued = Wc_p * t_c + Wm_p * t_m + T_net + app.T_io;
  // T_idle (load-imbalance bubbles) burns the idle floor without activity.
  e.Ep_idle = (app.alpha * total_issued + app.T_idle) * machine_.p_sys_idle;
  e.Ep_cpu_delta = Wc_p * t_c * dp_c;
  e.Ep_mem_delta = Wm_p * t_m * machine_.dp_m;
  e.Ep_io_delta = (T_net + app.T_io) * machine_.dp_io;
  // Extension: busy-poll CPU power during communication (0 by default, the
  // paper's Eq 12 behaviour).
  e.Ep_cpu_delta += T_net * dp_poll_;
  e.Ep = e.Ep_idle + e.Ep_cpu_delta + e.Ep_mem_delta + e.Ep_io_delta;

  // Overhead, factor, iso-energy-efficiency (Eqs 16, 19, 21). EEF is
  // reported raw (it can dip below zero when fitted negative memory
  // overheads meet the workload clamp at extreme extrapolations), but EE is
  // the paper's metric with Eo >= 0 structurally (Eq 16 sums non-negative
  // overhead energies), so it is clamped into (0, 1].
  e.Eo = e.Ep - e.E1;
  e.EEF = e.E1 > 0.0 ? e.Eo / e.E1 : 0.0;
  e.EE = 1.0 / (1.0 + std::max(0.0, e.EEF));
  return e;
}

}  // namespace isoee::model
