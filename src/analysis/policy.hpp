// Power-performance policies built on the iso-energy-efficiency model — the
// "policy" box of the paper's Fig 1. The paper's headline critique of prior
// controllers is that their effects are qualitative; with an accurate
// energy/performance model, policies become *quantitative*: pick (p, f)
// under a hard power cap, or minimise energy subject to a deadline.
#pragma once

#include <span>
#include <vector>

#include "model/model.hpp"
#include "model/workloads.hpp"

namespace isoee::analysis {

/// One candidate operating point with its model predictions.
struct PolicyChoice {
  int p = 1;
  double f_ghz = 0.0;
  double time_s = 0.0;      // predicted wall time Tp
  double energy_j = 0.0;    // predicted Ep
  double avg_power_w = 0.0; // Ep / Tp: the quantity a rack power cap limits
  double ee = 0.0;
  bool feasible = true;     // against the active constraint
};

/// Evaluates every (p, f) combination.
std::vector<PolicyChoice> enumerate_configs(const model::MachineParams& machine,
                                            const model::WorkloadModel& workload, double n,
                                            std::span<const int> ps,
                                            std::span<const double> gears_ghz);

/// Fastest configuration whose predicted average power stays under `cap_w`
/// (power-constrained parallel computation — the paper's title scenario).
/// Per-p gear selection goes through governor::fastest_gear_under_cap — the
/// same helper the online governor actuates with — so offline planning and
/// the runtime loop share one definition of the cap math. When no
/// configuration fits, the result is clamped to the lowest-power choice at
/// the lowest gear with feasible=false (never a 0-GHz sentinel, which
/// downstream gear-snapping would promote to the *fastest* gear).
PolicyChoice best_under_power_cap(const model::MachineParams& machine,
                                  const model::WorkloadModel& workload, double n,
                                  std::span<const int> ps, std::span<const double> gears_ghz,
                                  double cap_w);

/// Lowest-energy configuration with predicted time <= `deadline_s`. When no
/// configuration meets the deadline, the fastest one with feasible=false.
PolicyChoice best_energy_under_deadline(const model::MachineParams& machine,
                                        const model::WorkloadModel& workload, double n,
                                        std::span<const int> ps,
                                        std::span<const double> gears_ghz, double deadline_s);

}  // namespace isoee::analysis
