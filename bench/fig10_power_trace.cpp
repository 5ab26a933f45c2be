// Figure 10: PowerPack-style component power profile of the parallel FFT
// over its execution time. The simulator records per-rank activity segments;
// the virtual sensors sample CPU / memory / NIC / motherboard power, showing
// each component fluctuating above its idle floor as the code moves through
// compute, memory, and communication phases (the paper's MPI_FFT profile).
#include "analysis/runner.hpp"
#include "bench/figures.hpp"
#include "npb/classes.hpp"
#include "obs/obs.hpp"
#include "powerpack/phases.hpp"
#include "powerpack/profiler.hpp"

using namespace isoee;

int bench::fig10_power_trace(bench::Context& ctx) {
  auto machine = ctx.with_noise(sim::system_g());
  bench::heading("Fig 10: component power profile of the FT (MPI FFT) run",
                 "per-component power fluctuates above the idle floor per phase");

  powerpack::PhaseLog phases;
  obs::TraceCollector trace;
  analysis::RunOptions options;
  options.record_trace = true;
  options.phases = &phases;
  options.trace = &trace;
  const auto config = npb::ft_class(npb::ProblemClass::A);
  const int p = 4;
  const auto run = analysis::run_ft(machine, config, p, options);

  // The run's full event stream (segments, collectives, phases, message
  // flows) as a Chrome trace on virtual time — open in Perfetto, or feed to
  // `trace_stats` for per-phase / per-collective energy attribution.
  const std::string trace_path = ctx.csv_dir() + "/fig10_trace.json";
  if (obs::ChromeTraceWriter::write(trace.sorted(), trace_path,
                                    {{"figure", "fig10"},
                                     {"kernel", "ft"},
                                     {"class", "A"},
                                     {"machine", machine.name}})) {
    std::printf("[trace] %s (%zu events)\n", trace_path.c_str(), trace.size());
  }

  powerpack::Profiler profiler(machine);
  powerpack::SampleOptions sopts;
  sopts.interval_s = run.makespan / 400.0;
  sopts.sensor_noise = true;
  const auto samples = profiler.sample_job(run.traces, sopts);

  // Full-resolution CSV; down-sampled rows on stdout. The per-rank activity
  // Gantt data goes alongside for visual inspection of the phase structure.
  const std::string path = ctx.csv_dir() + "/fig10_power_trace.csv";
  if (powerpack::write_power_csv(samples, path)) {
    std::printf("[csv] %s (%zu samples)\n", path.c_str(), samples.size());
  }
  const std::string seg_path = ctx.csv_dir() + "/fig10_segments.csv";
  if (powerpack::write_segments_csv(run.traces, seg_path)) {
    std::printf("[csv] %s\n", seg_path.c_str());
  }

  util::Table table({"t_s", "cpu_W", "mem_W", "nic_W", "other_W", "total_W"});
  for (std::size_t i = 0; i < samples.size(); i += samples.size() / 20 + 1) {
    const auto& s = samples[i];
    table.add_row({util::num(s.t, 4), util::num(s.cpu_w, 1), util::num(s.mem_w, 1),
                   util::num(s.io_w, 1), util::num(s.other_w, 1),
                   util::num(s.total_w(), 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  // Idle floor for reference (the dashed line in the paper's figure).
  std::printf("\nidle floor (p = %d ranks): %.1f W\n", p,
              p * machine.power.system_idle_w());
  std::printf("energy by integration: %.1f J; engine accounting: %.1f J\n",
              powerpack::Profiler::integrate_j(samples, sopts.interval_s),
              run.total_energy_j());

  // Per-phase attribution (which the paper reads off the profile visually).
  std::printf("\n-- per-phase time and energy --\n");
  util::Table phase_table({"phase", "occurrences", "time_s", "energy_J"});
  for (const auto& ph : powerpack::summarize_phases(phases, profiler, run.traces)) {
    phase_table.add_row({ph.name, util::num(ph.occurrences), util::num(ph.time_s, 4),
                         util::num(ph.energy_j, 1)});
  }
  ctx.emit(phase_table, "fig10_phases");
  return 0;
}
