#include "analysis/runner.hpp"

namespace isoee::analysis {

namespace {

/// Per-run governor attachment: resolves the PhaseLog the kernel should mark
/// phases on (the caller's, or a run-local one when the governor needs a phase
/// feed and the caller passed none), subscribes the governor's hooks for the
/// duration of the run, and detaches on destruction so a caller-owned PhaseLog
/// never outlives the governor with a live observer.
struct GovernorAttachment {
  powerpack::PhaseLog local;
  powerpack::PhaseLog* phases = nullptr;
  bool attached = false;

  GovernorAttachment(const RunOptions& options, int p) {
    phases = options.phases;
    if (options.governor != nullptr) {
      if (phases == nullptr) phases = &local;
      phases->set_observer(options.governor->phase_hook());
      options.governor->begin_job(p);
      attached = true;
    }
  }
  ~GovernorAttachment() {
    if (attached) phases->set_observer(nullptr);
  }
};

/// One kernel run: attaches the governor (if any), applies the collective
/// override (every NPB config carries a `collectives` member), and runs
/// `kernel` on every rank of a fresh engine.
template <auto kernel, typename Config>
sim::RunResult run_kernel(const sim::MachineSpec& machine, Config cfg, int p,
                          const RunOptions& options) {
  GovernorAttachment attach(options, p);
  if (options.collectives != nullptr) cfg.collectives = *options.collectives;
  sim::EngineOptions opts;
  opts.record_trace = options.record_trace;
  opts.initial_ghz = options.f_ghz;
  opts.trace_sink = options.trace;
  if (options.governor != nullptr) opts.on_segment = options.governor->engine_hook();
  sim::Engine engine(machine, opts);
  return engine.run(p, [&](sim::RankCtx& ctx) { (void)kernel(ctx, cfg, attach.phases); });
}

}  // namespace

sim::RunResult run_ep(const sim::MachineSpec& machine, const npb::EpConfig& config, int p,
                      const RunOptions& options) {
  return run_kernel<npb::ep_rank>(machine, config, p, options);
}

sim::RunResult run_ft(const sim::MachineSpec& machine, const npb::FtConfig& config, int p,
                      const RunOptions& options) {
  return run_kernel<npb::ft_rank>(machine, config, p, options);
}

sim::RunResult run_cg(const sim::MachineSpec& machine, const npb::CgConfig& config, int p,
                      const RunOptions& options) {
  return run_kernel<npb::cg_rank>(machine, config, p, options);
}

sim::RunResult run_is(const sim::MachineSpec& machine, const npb::IsConfig& config, int p,
                      const RunOptions& options) {
  return run_kernel<npb::is_rank>(machine, config, p, options);
}

sim::RunResult run_mg(const sim::MachineSpec& machine, const npb::MgConfig& config, int p,
                      const RunOptions& options) {
  return run_kernel<npb::mg_rank>(machine, config, p, options);
}

sim::RunResult run_ckpt(const sim::MachineSpec& machine, const npb::CkptConfig& config,
                        int p, const RunOptions& options) {
  return run_kernel<npb::ckpt_rank>(machine, config, p, options);
}

sim::RunResult run_sweep(const sim::MachineSpec& machine, const npb::SweepConfig& config,
                         int p, const RunOptions& options) {
  return run_kernel<npb::sweep_rank>(machine, config, p, options);
}

}  // namespace isoee::analysis
