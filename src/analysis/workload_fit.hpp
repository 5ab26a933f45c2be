// Application-vector fitting: turns simulated hardware-counter measurements
// (the Perfmon/TAU stand-ins) into the coefficients of the closed-form
// workload models in model/workloads.hpp — the paper's Section IV.B step
// "build a workload and overhead model for each parameter by analyzing the
// algorithm and measuring the actual workload".
//
// Protocol per benchmark:
//   * sequential samples (p = 1) over several n fit W_c(n) and W_m(n);
//   * parallel samples fit the overhead terms dW_*(n, p) from the measured
//     counter excess over the sequential fit;
//   * alpha is the mean measured overlap factor of the parallel samples
//     (the paper finds it constant across p for a given code and machine).
#pragma once

#include <span>
#include <vector>

#include "model/workloads.hpp"
#include "sim/engine.hpp"

namespace isoee::analysis {

/// One measured (n, p) point: totals across ranks, from simulator counters.
struct CounterSample {
  double n = 0.0;
  int p = 1;
  double instructions = 0.0;
  double mem_accesses = 0.0;  // raw simulator access count
  double mem_time = 0.0;      // issued memory seconds (all ranks)
  double io_time = 0.0;       // I/O seconds (all ranks)
  double makespan = 0.0;      // wall time of the run (s)
  double messages = 0.0;
  double bytes = 0.0;
  double alpha = 1.0;  // measured overlap factor of the run

  /// The field list (see model::MachineParams::fields).
  template <class Self, class Visit>
  static void fields(Self& s, Visit&& visit) {
    visit("n", s.n);
    visit("p", s.p);
    visit("instructions", s.instructions);
    visit("mem_accesses", s.mem_accesses);
    visit("mem_time", s.mem_time);
    visit("io_time", s.io_time);
    visit("makespan", s.makespan);
    visit("messages", s.messages);
    visit("bytes", s.bytes);
    visit("alpha", s.alpha);
  }
};

/// Extracts a CounterSample from a finished run.
CounterSample make_sample(const sim::RunResult& run, double n, int p);

// All fits convert measured memory time into *effective off-chip accesses*
// W_m = mem_time / t_m (what Perfmon's off-chip counters report): the
// simulator's cache hierarchy serves part of the raw accesses at cache
// latency, and the model's single t_m must only be charged for the DRAM-
// equivalent workload. `t_m` must be the same value used at prediction time.

/// Fits the EP workload model. Requires >= 1 sequential and >= 1 parallel sample.
model::EpWorkload fit_ep_workload(std::span<const CounterSample> samples, double t_m);

/// Fits the FT workload model; `iters` must match the runs' FtConfig::iters.
model::FtWorkload fit_ft_workload(std::span<const CounterSample> samples, int iters,
                                  double t_m);

/// Fits the CG workload model; outer/inner/nzr must match the runs' CgConfig.
model::CgWorkload fit_cg_workload(std::span<const CounterSample> samples, int outer,
                                  int inner, double nzr, double t_m);

/// Fits the IS workload model.
model::IsWorkload fit_is_workload(std::span<const CounterSample> samples, double t_m);

/// Fits the MG workload model, including its nearest-neighbour communication
/// coefficients (MG's halo volume is fitted, not structural — the level
/// hierarchy depth is configuration-dependent).
model::MgWorkload fit_mg_workload(std::span<const CounterSample> samples, int cycles,
                                  double t_m);

/// Fits the CKPT workload model including its I/O-time terms.
model::CkptWorkload fit_ckpt_workload(std::span<const CounterSample> samples,
                                      int iterations, int ckpt_every, double t_m);

/// Fits the SWEEP workload model (wavefront pipeline).
model::SweepWorkload fit_sweep_workload(std::span<const CounterSample> samples, int sweeps,
                                        int tile_w, double t_m);

}  // namespace isoee::analysis
