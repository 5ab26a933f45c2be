// Heterogeneous-cluster extension of the iso-energy-efficiency model — the
// paper's stated future work ("we want to extend the current model to
// heterogeneous systems").
//
// A heterogeneous partition is a set of processor classes, each with its own
// machine-dependent vector (different frequency, CPI, or power profile) and
// processor count. The workload is split across classes by a share vector;
// the natural choice is speed-proportional shares, which balance class
// completion times. The extended quantities are:
//
//   Tp   = max over classes of the class's balanced wall time
//   Ep   = sum over classes of the class's energy (idle floor over the whole
//          job duration Tp — slower classes' early finishers idle-burn)
//   EE   = E1_ref / Ep, with E1_ref the sequential energy on a designated
//          reference class (EE reduces to the homogeneous Eq 21 when all
//          classes are identical).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "model/workloads.hpp"

namespace isoee::model {

/// One processor class of a heterogeneous partition.
struct ProcessorClass {
  std::string name = "class";
  MachineParams machine;
  int count = 1;
};

/// Result of evaluating a heterogeneous configuration.
struct HeteroPrediction {
  double Tp = 0.0;        // job wall time (slowest class)
  double Ep = 0.0;        // total energy across classes
  double E1_ref = 0.0;    // sequential energy on the reference class
  double EE = 0.0;        // E1_ref / Ep clamped into (0, 1]
  std::vector<double> class_times;     // balanced time per class
  std::vector<double> class_energies;  // energy per class (incl. idle tail)
  std::vector<double> shares;          // workload share per class (sums to 1)
};

/// Speed-proportional workload shares (one entry per class), weighted by
/// count * per-processor speed; balances class completion times.
std::vector<double> balanced_shares(std::span<const ProcessorClass> classes,
                                    const WorkloadModel& workload, double n);

/// Evaluates the heterogeneous model at problem size n with the given
/// workload shares (must sum to ~1; one entry per class). `reference`
/// selects the class whose single-processor run defines E1.
HeteroPrediction predict_hetero(std::span<const ProcessorClass> classes,
                                const WorkloadModel& workload, double n,
                                std::span<const double> shares, std::size_t reference = 0);

/// Convenience: evaluate with speed-balanced shares.
HeteroPrediction predict_hetero_balanced(std::span<const ProcessorClass> classes,
                                         const WorkloadModel& workload, double n,
                                         std::size_t reference = 0);

/// Grid-searches the share given to class 0 (two-class partitions only) to
/// minimise predicted energy; returns the best share for class 0.
double best_split_for_energy(std::span<const ProcessorClass> classes,
                             const WorkloadModel& workload, double n, int steps = 100);

}  // namespace isoee::model
