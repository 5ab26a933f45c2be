// Convenience runners: execute one NPB kernel on the simulated cluster and
// return the engine's RunResult (the "PowerPack measurement" of that job).
// Used by the fitting, validation, and bench layers.
#pragma once

#include <string>

#include "governor/governor.hpp"
#include "npb/cg.hpp"
#include "npb/ep.hpp"
#include "npb/ft.hpp"
#include "npb/is.hpp"
#include "npb/ckpt.hpp"
#include "npb/mg.hpp"
#include "npb/sweep.hpp"
#include "sim/engine.hpp"

namespace isoee::analysis {

struct RunOptions {
  double f_ghz = 0.0;         // 0 -> machine base frequency
  bool record_trace = false;  // keep segment timelines (power profiles)
  powerpack::PhaseLog* phases = nullptr;

  /// When set, overrides the kernel config's collective settings (algorithm
  /// choice / tuning table / comm gear) without touching the kernel's own
  /// workload parameters — the knob sweeps and ablation benches use this to
  /// vary only the communication stack.
  const smpi::CollectiveConfig* collectives = nullptr;

  /// Per-run trace sink (src/obs): forwarded to EngineOptions::trace_sink, so
  /// one run's spans/flows/instants land in a caller-owned collector even when
  /// many runs execute concurrently (the --jobs determinism tests rely on
  /// this). Null defers to the process-global sink.
  obs::TraceSink* trace = nullptr;

  /// Opt-in closed-loop DVFS: when set, the runner attaches the governor to
  /// the engine's streaming-sample hook and to the kernel's phase markers
  /// (allocating an internal PhaseLog if `phases` is null), and calls
  /// begin_job before the run. The governor's policies then actuate
  /// set_frequency online while the kernel executes.
  governor::Governor* governor = nullptr;
};

sim::RunResult run_ep(const sim::MachineSpec& machine, const npb::EpConfig& config, int p,
                      const RunOptions& options = RunOptions());
sim::RunResult run_ft(const sim::MachineSpec& machine, const npb::FtConfig& config, int p,
                      const RunOptions& options = RunOptions());
sim::RunResult run_cg(const sim::MachineSpec& machine, const npb::CgConfig& config, int p,
                      const RunOptions& options = RunOptions());
sim::RunResult run_is(const sim::MachineSpec& machine, const npb::IsConfig& config, int p,
                      const RunOptions& options = RunOptions());
sim::RunResult run_mg(const sim::MachineSpec& machine, const npb::MgConfig& config, int p,
                      const RunOptions& options = RunOptions());
sim::RunResult run_ckpt(const sim::MachineSpec& machine, const npb::CkptConfig& config,
                        int p, const RunOptions& options = RunOptions());
sim::RunResult run_sweep(const sim::MachineSpec& machine, const npb::SweepConfig& config,
                         int p, const RunOptions& options = RunOptions());

}  // namespace isoee::analysis
