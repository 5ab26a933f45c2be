// Pluggable per-rank control policies for the runtime governor.
//
// Each simulated rank gets its own policy instance (policies are stateful:
// hysteresis position, dwell timers, saved compute gear across communication
// phases), created from a shared PolicyFactory. A policy sees only its own
// rank's Observation — which carries deterministic cluster-level estimates —
// so decisions are reproducible regardless of host thread scheduling.
//
// Two policies ship with the library (an open-loop baseline is simply a run
// without a governor):
//   * CapPolicy       — hysteresis cluster-power-cap enforcer with reactive
//                       communication-phase gear-down.
//   * EeTargetPolicy  — evaluates the calibrated iso-energy-efficiency model
//                       online and picks the cheapest gear keeping EE >= target.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "governor/trace.hpp"
#include "model/model.hpp"
#include "model/workloads.hpp"
#include "sim/machine.hpp"
#include "smpi/comm.hpp"

namespace isoee::governor {

/// What a policy sees at a decision point. Cluster/node figures are the
/// deterministic SPMD extrapolation of this rank's own sliding window
/// (rank_w * nranks): every rank runs the same program, so its own power is
/// an unbiased estimator of its peers' — and, unlike a shared aggregator over
/// unsynchronised virtual clocks, it is identical across reruns.
struct Observation {
  double t = 0.0;                 // rank's virtual time
  int rank = 0;
  int nranks = 1;
  PhaseKind phase = PhaseKind::kCompute;
  double current_ghz = 0.0;       // gear currently in effect
  double rank_w = 0.0;            // sliding-window average power of this rank
  double rank_cpu_delta_w = 0.0;  // frequency-sensitive share of rank_w
  double node_w = 0.0;            // rank_w * cores_per_node
  double cluster_w = 0.0;         // rank_w * nranks
  double cluster_cpu_delta_w = 0.0;
  double cap_w = 0.0;             // active cluster power cap (0 = uncapped)
};

/// What a policy returns.
struct Decision {
  double f_ghz = 0.0;         // gear to run at (engine snaps to the grid)
  double predicted_w = 0.0;   // predicted cluster power at f_ghz (0 if unknown)
  double predicted_ee = 0.0;  // model EE at f_ghz (0 if the policy is modelless)
  const char* reason = "";    // short tag for the decision trace
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual const char* name() const = 0;
  virtual Decision decide(const Observation& obs) = 0;
};

/// Creates one policy instance per rank; must be safe to call concurrently.
using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

/// Resolves the communication-phase gear a job should run at: an explicit
/// comm gear in the smpi collective config wins; otherwise the machine's
/// lowest DVFS gear (the same default the policies apply when their own
/// comm_gear_ghz is 0). Keeps the smpi-level and governor-level comm-gear
/// settings from silently disagreeing.
double comm_gear_from(const sim::MachineSpec& machine,
                      const smpi::CollectiveConfig& collectives);

/// Hysteresis power-cap enforcer.
///
/// Control law (per rank, on its deterministic cluster estimate P):
///   * communication phase entered  -> drop to comm_gear (lowest gear when 0);
///     the compute gear is saved and restored on phase exit — communication
///     time is frequency-independent, so this is free performance-wise and
///     cuts busy-poll power.
/// With E = cap_w * (1 - guard_band) the enforcement threshold:
///   * P > E                        -> step one gear down (after min_dwell_s
///     since the last change; clamps at the lowest gear).
///   * P < E * (1 - release_band), and the power predicted at the next
///     gear up — P + dP * ((f_up/f)^gamma - 1), with dP the observed
///     frequency-sensitive share — stays under E * (1 - release_band)
///     -> step one gear up (after up_dwell_s).
/// The guard band exists because P is a sliding-window average diluted by
/// low-power communication time: enforcing slightly below the cap keeps the
/// *instantaneous* compute-phase draw under the cap too, which is what a rack
/// breaker actually sees. The release band plus the model-form up-prediction
/// is what prevents down/up oscillation around the cap under steady load.
struct CapPolicyConfig {
  std::vector<double> gears_ghz;  // descending; typically machine.cpu.gears_ghz
  double cap_w = 0.0;             // cluster power cap (watts)
  double gamma = 2.0;             // power-frequency exponent for up-prediction
  double guard_band = 0.03;       // enforce at cap_w * (1 - guard_band)
  double release_band = 0.08;     // fractional headroom required to step up
  double min_dwell_s = 0.002;     // min virtual time between downward moves
  double up_dwell_s = 0.004;      // min virtual time before an upward move
  double comm_gear_ghz = 0.0;     // gear during communication (0 = lowest)
};
PolicyFactory make_cap_policy(CapPolicyConfig config);

/// EE-target policy: evaluates the calibrated model at every gear once, then
/// at each decision returns the lowest-power gear whose predicted EE stays at
/// or above `ee_target` (falling back to the max-EE gear when the target is
/// unreachable). During communication phases it behaves like CapPolicy's
/// comm gear-down. `workload` must outlive the policy.
struct EeTargetConfig {
  model::MachineParams machine;   // calibrated machine vector
  const model::WorkloadModel* workload = nullptr;
  double n = 0.0;                 // problem size of the running job
  int p = 1;                      // ranks of the running job
  double ee_target = 0.5;
  std::vector<double> gears_ghz;  // descending
  double comm_gear_ghz = 0.0;     // gear during communication (0 = lowest)
};
PolicyFactory make_ee_target_policy(EeTargetConfig config);

}  // namespace isoee::governor
