#include "model/isocontour.hpp"

#include <cmath>
#include <limits>

namespace isoee::model {

namespace {

/// One p's geometric bisection for the smallest n with EE(n, p) >= target,
/// as a state that advances one step at a time. required_problem_size runs
/// one to the end; iso_ee_contour advances all of its ps in lockstep, one
/// pass over the open ones per step, so their independent evaluation chains
/// (sqrt, workload.at, predict_energy's divides) overlap in the CPU.
struct SizeSearch {
  static constexpr int kMaxSteps = 200;

  int p = 1;
  double lo = 0.0;      // EE(lo) < target <= EE(hi) while open
  double hi = 0.0;      // the answer once closed: -1 when unreachable
  double ee_hi = 0.0;   // EE(hi), kept so the answer's EE is not evaluated again
  double ee_top = 0.0;  // EE(n_hi)
  int steps = 0;

  SizeSearch(const IsoEnergyModel& model, const WorkloadModel& workload, int p_,
             double target_ee, double n_lo, double n_hi)
      : p(p_), lo(n_lo), hi(n_hi) {
    ee_top = model.ee(workload.at(n_hi, p));
    ee_hi = ee_top;
    if (ee_top < target_ee) {  // even n_hi cannot reach the target
      hi = -1.0;
      steps = kMaxSteps;
      return;
    }
    const double ee_lo = model.ee(workload.at(n_lo, p));
    if (ee_lo >= target_ee) {  // n_lo already does
      hi = n_lo;
      ee_hi = ee_lo;
      steps = kMaxSteps;
    }
  }

  bool open() const { return steps < kMaxSteps && hi / lo > 1.0 + 1e-9; }

  void step(const IsoEnergyModel& model, const WorkloadModel& workload,
            double target_ee) {
    const double mid = std::sqrt(lo * hi);  // geometric bisection: n spans decades
    const double ee = model.ee(workload.at(mid, p));
    if (ee >= target_ee) {
      hi = mid;
      ee_hi = ee;
    } else {
      lo = mid;
    }
    ++steps;
  }

  /// The contour point: EE at the answer, or at n_hi when there is none.
  ContourPoint point() const { return {p, hi, hi > 0.0 ? ee_hi : ee_top}; }
};

}  // namespace

double ee_at(const MachineParams& machine, const WorkloadModel& workload, double n, int p,
             double f_ghz) {
  IsoEnergyModel model(machine.at_frequency(f_ghz));
  return model.ee(workload.at(n, p));
}

int max_processors(const MachineParams& machine, const WorkloadModel& workload, double n,
                   double f_ghz, double target_ee, int p_max) {
  const IsoEnergyModel model(machine.at_frequency(f_ghz));
  if (model.ee(workload.at(n, p_max)) >= target_ee) return p_max;
  int lo = 1, hi = p_max;  // invariant: EE(lo) >= target, EE(hi) < target
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (model.ee(workload.at(n, mid)) >= target_ee) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double required_problem_size(const MachineParams& machine, const WorkloadModel& workload,
                             int p, double f_ghz, double target_ee, double n_lo,
                             double n_hi) {
  const IsoEnergyModel model(machine.at_frequency(f_ghz));
  SizeSearch search(model, workload, p, target_ee, n_lo, n_hi);
  while (search.open()) search.step(model, workload, target_ee);
  return search.hi;
}

double best_frequency_for_ee(const MachineParams& machine, const WorkloadModel& workload,
                             double n, int p, std::span<const double> gears_ghz) {
  double best_f = gears_ghz.front();
  double best_ee = -1.0;
  for (double f : gears_ghz) {
    const double ee = ee_at(machine, workload, n, p, f);
    if (ee > best_ee) {
      best_ee = ee;
      best_f = f;
    }
  }
  return best_f;
}

double best_frequency_for_energy(const MachineParams& machine, const WorkloadModel& workload,
                                 double n, int p, std::span<const double> gears_ghz) {
  double best_f = gears_ghz.front();
  double best_ep = std::numeric_limits<double>::infinity();
  for (double f : gears_ghz) {
    IsoEnergyModel model(machine.at_frequency(f));
    const double ep = model.predict_energy(workload.at(n, p)).Ep;
    if (ep < best_ep) {
      best_ep = ep;
      best_f = f;
    }
  }
  return best_f;
}

std::vector<ContourPoint> iso_ee_contour(const MachineParams& machine,
                                         const WorkloadModel& workload, double target_ee,
                                         std::span<const int> ps, double f_ghz, double n_lo,
                                         double n_hi) {
  const IsoEnergyModel model(machine.at_frequency(f_ghz));
  std::vector<SizeSearch> searches;
  searches.reserve(ps.size());
  std::vector<std::size_t> open;
  for (int p : ps) {
    searches.emplace_back(model, workload, p, target_ee, n_lo, n_hi);
    if (searches.back().open()) open.push_back(searches.size() - 1);
  }
  while (!open.empty()) {
    std::size_t kept = 0;
    for (std::size_t i : open) {
      searches[i].step(model, workload, target_ee);
      if (searches[i].open()) open[kept++] = i;
    }
    open.resize(kept);
  }

  std::vector<ContourPoint> contour;
  contour.reserve(ps.size());
  for (const SizeSearch& search : searches) contour.push_back(search.point());
  return contour;
}

}  // namespace isoee::model
