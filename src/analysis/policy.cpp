#include "analysis/policy.hpp"

#include <limits>

#include "governor/gearsel.hpp"

namespace isoee::analysis {

namespace {

PolicyChoice evaluate(const model::MachineParams& machine,
                      const model::WorkloadModel& workload, double n, int p, double f) {
  model::IsoEnergyModel m(machine.at_frequency(f));
  const auto app = workload.at(n, p);
  const auto perf = m.predict_performance(app);
  const auto energy = m.predict_energy(app);
  PolicyChoice c;
  c.p = p;
  c.f_ghz = f;
  c.time_s = perf.Tp;
  c.energy_j = energy.Ep;
  c.avg_power_w = perf.Tp > 0.0 ? energy.Ep / perf.Tp : 0.0;
  c.ee = energy.EE;
  return c;
}

}  // namespace

std::vector<PolicyChoice> enumerate_configs(const model::MachineParams& machine,
                                            const model::WorkloadModel& workload, double n,
                                            std::span<const int> ps,
                                            std::span<const double> gears_ghz) {
  std::vector<PolicyChoice> out;
  out.reserve(ps.size() * gears_ghz.size());
  for (int p : ps) {
    for (double f : gears_ghz) out.push_back(evaluate(machine, workload, n, p, f));
  }
  return out;
}

PolicyChoice best_under_power_cap(const model::MachineParams& machine,
                                  const model::WorkloadModel& workload, double n,
                                  std::span<const int> ps, std::span<const double> gears_ghz,
                                  double cap_w) {
  PolicyChoice best;
  best.feasible = false;
  best.time_s = std::numeric_limits<double>::infinity();
  PolicyChoice clamped;  // lowest-power fallback when nothing fits the cap
  clamped.feasible = false;
  clamped.avg_power_w = std::numeric_limits<double>::infinity();
  bool have_clamped = false;
  if (gears_ghz.empty()) return best;
  for (int p : ps) {
    // Time is monotone in f at fixed p (t_c = CPI/f, communication is
    // frequency-independent), so the fastest feasible gear per p is exactly
    // what the shared selector returns.
    const auto sel = governor::fastest_gear_under_cap(
        gears_ghz,
        [&](double f) { return evaluate(machine, workload, n, p, f).avg_power_w; }, cap_w);
    const PolicyChoice c = evaluate(machine, workload, n, p, sel.f_ghz);
    if (sel.feasible) {
      if (c.time_s < best.time_s) {
        best = c;
        best.feasible = true;
      }
    } else if (c.avg_power_w < clamped.avg_power_w) {
      clamped = c;
      clamped.feasible = false;
      have_clamped = true;
    }
  }
  if (best.feasible) return best;
  return have_clamped ? clamped : best;
}

PolicyChoice best_energy_under_deadline(const model::MachineParams& machine,
                                        const model::WorkloadModel& workload, double n,
                                        std::span<const int> ps,
                                        std::span<const double> gears_ghz,
                                        double deadline_s) {
  PolicyChoice best;  // lowest energy within the deadline
  best.feasible = false;
  best.energy_j = std::numeric_limits<double>::infinity();
  PolicyChoice fastest;  // fallback when nothing meets the deadline
  fastest.feasible = false;
  fastest.time_s = std::numeric_limits<double>::infinity();
  for (const auto& c : enumerate_configs(machine, workload, n, ps, gears_ghz)) {
    if (c.time_s < fastest.time_s) {
      fastest = c;
      fastest.feasible = false;
    }
    if (c.time_s > deadline_s) continue;
    if (c.energy_j < best.energy_j) {
      best = c;
      best.feasible = true;
    }
  }
  return best.feasible ? best : fastest;
}

}  // namespace isoee::analysis
