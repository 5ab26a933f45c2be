// The iso-energy-efficiency model proper: performance (Eqs 5-6), component
// energy (Eqs 7-15), parallel overhead energy (Eq 16-18), the energy
// efficiency factor EEF (Eq 3/19), and iso-energy-efficiency EE (Eq 4/21).
#pragma once

#include <utility>

#include "model/params.hpp"

namespace isoee::model {

/// Performance quantities derived from one (machine, app) pairing.
struct PerfPrediction {
  double T1 = 0.0;      // sequential wall time, alpha * (W_c t_c + W_m t_m + T_io)
  double Tp = 0.0;      // parallel wall time on p processors (balanced)
  double T_net = 0.0;   // total network time across ranks (Eq 17)
  double speedup = 0.0; // T1 / Tp
  double perf_efficiency = 0.0;  // T1 / (p * Tp) — Grama isoefficiency's E
};

/// Energy quantities (joules) and the efficiency metrics built from them.
struct EnergyPrediction {
  double E1 = 0.0;   // sequential energy (Eq 13)
  double Ep = 0.0;   // parallel energy over p processors (Eq 15)
  double Eo = 0.0;   // parallel energy overhead Ep - E1 (Eqs 1, 16, 18)
  double EEF = 0.0;  // energy efficiency factor Eo / E1 (Eq 3/19)
  double EE = 0.0;   // iso-energy-efficiency 1 / (1 + EEF) (Eq 4/21)

  // Component decomposition of Ep (idle floor vs. activity increments).
  double Ep_idle = 0.0;
  double Ep_cpu_delta = 0.0;
  double Ep_mem_delta = 0.0;
  double Ep_io_delta = 0.0;
};

/// Stateless evaluator for the analytical model. Constructed around a
/// machine-dependent vector; every call supplies an application vector
/// already evaluated at the (n, p) of interest. The frequency-dependent
/// machine constants (t_c, dP_c and the busy-poll increment, one pow each)
/// are evaluated once here, by MachineParams' own expressions, so the
/// inverse solvers can query one model thousands of times.
class IsoEnergyModel {
 public:
  explicit IsoEnergyModel(MachineParams machine)
      : machine_(std::move(machine)),
        t_c_(machine_.t_c()),
        dp_c_(machine_.dp_c()),
        dp_poll_(machine_.dp_poll()) {}

  const MachineParams& machine() const { return machine_; }

  /// Re-binds the machine vector at another frequency (DVFS what-if).
  IsoEnergyModel at_frequency(double ghz) const {
    return IsoEnergyModel(machine_.at_frequency(ghz));
  }

  /// Total network time across ranks: M t_s + B t_w (Eq 17). For step-
  /// synchronous algorithms over a Hockney network this is exact; algorithm-
  /// specific specialisations only change how M and B are derived.
  double network_time(const AppParams& app) const {
    return app.M * machine_.t_s + app.B * machine_.t_w;
  }

  /// Performance model (Eqs 5-6 extended with communication).
  PerfPrediction predict_performance(const AppParams& app) const;

  /// Energy model: E1 (Eq 13), Ep (Eq 15), Eo (Eq 16), EEF (Eq 19), EE (Eq 21).
  EnergyPrediction predict_energy(const AppParams& app) const;

  /// Convenience: just the iso-energy-efficiency value.
  double ee(const AppParams& app) const { return predict_energy(app).EE; }

 private:
  MachineParams machine_;
  double t_c_;      // machine_.t_c()
  double dp_c_;     // machine_.dp_c()
  double dp_poll_;  // machine_.dp_poll()
};

}  // namespace isoee::model
