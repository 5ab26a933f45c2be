// EnergyStudy: the end-to-end iso-energy-efficiency workflow of the paper's
// Sections IV-V for one benchmark on one machine:
//
//   1. calibrate the machine-dependent vector with the microbenchmark tools
//      (lat_mem_rd, mpptest, PowerPack-style power micro-runs);
//   2. run the benchmark at a few small (n, p) points, read the simulated
//      hardware counters, and fit the application-dependent workload model;
//   3. predict energy/EE at arbitrary (n, p, f) from the analytical model and
//      validate against full "measured" simulations.
//
// The BenchmarkAdapter hides the per-kernel config plumbing so the same study
// logic drives every kernel (EP, FT, CG, IS, MG, CKPT, SWEEP).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "analysis/workload_fit.hpp"
#include "benchtools/calibrate.hpp"
#include "exec/executor.hpp"
#include "model/isocontour.hpp"
#include "model/model.hpp"
#include "model/workloads.hpp"

namespace isoee::analysis {

/// Adapts one benchmark kernel to the generic study workflow.
class BenchmarkAdapter {
 public:
  virtual ~BenchmarkAdapter() = default;
  virtual std::string name() const = 0;

  /// Deterministic digest of the base config, built from its field list:
  /// two adapters with different fingerprints may produce different
  /// measurements at the same (n, p). Result-cache keys are built from this.
  virtual std::string fingerprint() const = 0;

  /// Runs the kernel at problem size ~n on p ranks; returns the measurement.
  /// Implementations may snap n to the nearest valid size (e.g. FT grids);
  /// `snapped_n` reports the size actually run.
  virtual sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                             const RunOptions& options, double* snapped_n) const = 0;

  /// Fits the closed-form workload model from counter samples. `t_m` is the
  /// calibrated memory latency used to convert memory time into effective
  /// off-chip accesses.
  virtual std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                                    double t_m) const = 0;

  /// Default problem size for validation (the "class" size).
  virtual double default_n() const = 0;
};

/// The adapter of a kernel config: one KernelAdapter<App> per app row
/// (study.cpp). Its fingerprint walks the config's field list.
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::EpConfig base);
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::FtConfig base);
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::CgConfig base);
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::IsConfig base);
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::MgConfig base);
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::CkptConfig base);
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::SweepConfig base);

/// One row of the app registry: everything that is known about an app by
/// its name alone.
struct AppInfo {
  const char* name;
  std::unique_ptr<BenchmarkAdapter> (*make_adapter)();  // default config
  /// The workloads.hpp default model, or nullptr for apps whose fitted
  /// coefficients default to zero (MG, CKPT, SWEEP): calibrate those first.
  std::shared_ptr<const model::WorkloadModel> (*stock_model)();
  bool pow2_p;  // decomposes on power-of-two grids, so p must be a power of two
};

/// Every app, in the order EP, FT, CG, IS, MG, CKPT, SWEEP.
std::span<const AppInfo> app_table();

/// The row named `name`, or nullptr when there is none.
const AppInfo* find_app(std::string_view name);

// --- calibration as plan + fit ---------------------------------------------
//
// Calibration is a batch of independent, cacheable simulation cases followed
// by a pure fold. EnergyStudy and the query service run the same cases on an
// exec::Executor, so they share cache keys and payload bytes, and one warms
// the other's --cache-dir.

/// Cache key of one simulation-derived study quantity: `kind` is
/// "calibrate" (a calibration point) or "measure" (a measure_case).
std::string study_key(const char* kind, const std::string& machine_fp,
                      const std::string& adapter_fp, double n, int p, double f_ghz);

/// The machine-vector pass as one case: the microbenchmarks when `measured`,
/// the nominal spec values otherwise. Decode its payload with
/// decode_machine_params.
exec::Case machine_params_case(const sim::MachineSpec& spec, bool measured);
model::MachineParams decode_machine_params(const std::string& payload);

/// One case per calibration point: every n at p=1, then every p > 1 at the
/// largest n (default_n() when `ns` is empty). Payloads are counter samples.
std::vector<exec::Case> calibration_cases(const sim::MachineSpec& spec,
                                          std::shared_ptr<const BenchmarkAdapter> adapter,
                                          std::span<const double> ns, std::span<const int> ps);

/// Fits the workload model from calibration_cases' results, in their order.
/// Throws when a case failed.
std::unique_ptr<model::WorkloadModel> fit_calibration(const BenchmarkAdapter& adapter,
                                                      std::span<const exec::CaseResult> results,
                                                      double t_m);

/// One full "measured" simulation: the problem size actually run, the
/// whole-run energy and makespan, and the run's mean overlap factor.
struct Measurement {
  double n = 0.0;
  double energy_j = 0.0;
  double time_s = 0.0;
  double alpha = 0.0;

  /// The field list (see model::MachineParams::fields).
  template <class Self, class Visit>
  static void fields(Self& m, Visit&& visit) {
    visit("n", m.n);
    visit("energy_j", m.energy_j);
    visit("time_s", m.time_s);
    visit("alpha", m.alpha);
  }
};

/// The adapter's kernel at (n, p) and gear `f_ghz` (already resolved, > 0) as
/// one case under the "measure" key kind. EnergyStudy::validate and the
/// service's measured predict both run it, so they share cache entries.
/// Decode its payload with decode_measurement.
exec::Case measure_case(const sim::MachineSpec& spec,
                        std::shared_ptr<const BenchmarkAdapter> adapter, double n, int p,
                        double f_ghz);
Measurement decode_measurement(const std::string& payload);

/// One actual-vs-predicted energy comparison (a bar pair of Fig 3, a
/// contribution to Fig 4's error rate).
struct ValidationPoint {
  std::string benchmark;
  double n = 0.0;
  int p = 1;
  double f_ghz = 0.0;
  double actual_j = 0.0;     // full simulation with noise ("PowerPack")
  double predicted_j = 0.0;  // analytical model (Eq 15)
  double actual_s = 0.0;     // measured makespan
  double predicted_s = 0.0;  // model Tp
  double error_pct = 0.0;    // |predicted - actual| / actual * 100
};

class EnergyStudy {
 public:
  /// `measured_calibration` selects between microbenchmark-measured machine
  /// parameters (the paper's protocol; inherits noise) and nominal spec
  /// values (ground truth, for exactness tests). Calibration and validation
  /// runs execute on `exec`, the process's executor, which must outlive the
  /// study. With a cache directory every simulation-derived quantity
  /// (machine microbenchmark parameters, counter samples, validation
  /// measurements) is content-addressed on disk — a warm rerun of a figure
  /// driver executes zero simulations and reproduces its CSVs byte for byte.
  EnergyStudy(sim::MachineSpec machine, std::unique_ptr<BenchmarkAdapter> adapter,
              bool measured_calibration, exec::Executor& exec);

  /// Runs the benchmark over the given calibration points and fits the
  /// workload model. Typical: a couple of n at p=1 plus small p at default n.
  void calibrate(std::span<const double> ns, std::span<const int> ps);

  /// Analytical prediction at (n, p, f). Requires calibrate() first.
  model::EnergyPrediction predict(double n, int p, double f_ghz = 0.0) const;
  model::PerfPrediction predict_performance(double n, int p, double f_ghz = 0.0) const;

  /// Full simulation + model prediction at the same point.
  ValidationPoint validate(double n, int p, double f_ghz = 0.0) const;

  /// Full simulations at the (n, p) points and gear `f_ghz` (0 = base), run
  /// as one batch of measure_cases on the study's executor. One Measurement
  /// per point, in order; throws when a run failed.
  std::vector<Measurement> measure(std::span<const std::pair<double, int>> points,
                                   double f_ghz = 0.0) const;

  const model::MachineParams& machine_params() const { return machine_params_; }
  const model::WorkloadModel& workload() const { return *workload_; }
  const sim::MachineSpec& machine() const { return machine_; }
  const BenchmarkAdapter& adapter() const { return *adapter_; }

 private:
  /// Runs one case on the study's executor; returns its payload and throws,
  /// naming `what`, when it failed.
  std::string run_case(exec::Case c, const char* what) const;

  sim::MachineSpec machine_;
  std::shared_ptr<const BenchmarkAdapter> adapter_;
  exec::Executor& exec_;
  model::MachineParams machine_params_;
  std::unique_ptr<model::WorkloadModel> workload_;
};

}  // namespace isoee::analysis
