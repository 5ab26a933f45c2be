// Shared scaffolding for the experiment harnesses (one binary per paper
// figure): consistent stdout formatting, CSV export, and hermetic-run flags.
//
// Every bench main starts with
//
//   int main(int argc, char** argv) {
//     if (!isoee::bench::init(argc, argv)) return 1;
//     ...
//   }
//
// which gives all experiment binaries four shared overrides:
//   --csv-dir=DIR    write CSVs under DIR instead of ./bench_out (CI runs
//                    benches hermetically into a temp dir)
//   --seed=N         override the machine presets' deterministic noise seed
//   --jobs=N         host-thread budget for case execution (1 = serial,
//                    0 = hardware_concurrency); results are identical for
//                    every value by the executor's determinism contract
//   --engine-workers=N  host workers per simulation for the fiber engine
//                    (0 = automatic); results are identical for every value
//                    by the scheduler's determinism contract
//   --cache-dir=DIR  content-addressed result cache; a warm rerun replays
//                    cached results and executes zero simulations
//   --trace-out=F    install a process-global obs collector and write the
//                    run's Chrome trace (virtual time) to F at exit
//   --metrics-out=F  write the obs metrics snapshot to F at exit (.json or
//                    .csv, chosen by extension)
//   --flame-out=F    sample the fiber scheduler's host time (SchedProfiler)
//                    and write collapsed stacks to F at exit; inspect with
//                    `trace_stats --flame` or flamegraph.pl
//
// The log level honours the ISOEE_LOG environment variable ("trace" ...
// "off"); bench::init applies it before any subsystem can log.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/surface.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "obs/sched_profiler.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace isoee::bench {

namespace detail {
inline std::string& csv_dir() {
  static std::string dir = "bench_out";
  return dir;
}
inline bool& seed_overridden() {
  static bool set = false;
  return set;
}
inline std::uint64_t& seed_value() {
  static std::uint64_t seed = 0;
  return seed;
}
inline exec::ExecConfig& exec_cfg() {
  static exec::ExecConfig cfg;
  return cfg;
}
inline obs::TraceCollector& trace_collector() {
  static obs::TraceCollector collector;
  return collector;
}
inline std::string& trace_out() {
  static std::string path;
  return path;
}
inline std::string& metrics_out() {
  static std::string path;
  return path;
}
inline std::string& flame_out() {
  static std::string path;
  return path;
}

/// atexit hook: flush the --trace-out / --metrics-out artifacts once the
/// bench main returns (covers std::exit paths in emit() too).
inline void write_observability_artifacts() {
  if (!trace_out().empty()) {
    obs::set_global_sink(nullptr);
    const auto events = trace_collector().sorted();
    if (obs::ChromeTraceWriter::write(events, trace_out(),
                                      {{"source", "isoee-bench"}})) {
      std::printf("[trace] %s (%zu events)\n", trace_out().c_str(), events.size());
    } else {
      ISOEE_ERROR("failed to write --trace-out %s", trace_out().c_str());
    }
  }
  if (!metrics_out().empty()) {
    const std::string& path = metrics_out();
    if (obs::metrics().write(path)) {
      std::printf("[metrics] %s\n", path.c_str());
    } else {
      ISOEE_ERROR("failed to write --metrics-out %s", path.c_str());
    }
  }
  if (!flame_out().empty()) {
    obs::sched_profiler().stop();
    if (obs::sched_profiler().write_collapsed(flame_out())) {
      std::printf("[flame] %s (%llu samples)\n", flame_out().c_str(),
                  static_cast<unsigned long long>(obs::sched_profiler().total_samples()));
    } else {
      ISOEE_ERROR("failed to write --flame-out %s", flame_out().c_str());
    }
  }
}
}  // namespace detail

/// Parses the shared bench flags. Returns false (after printing usage) on
/// --help or a malformed flag; benches should exit then. Output directories
/// are created once, here, so a bad --csv-dir fails before any simulation
/// time is spent rather than after.
inline bool init(int argc, const char* const* argv) {
  if (const char* level = std::getenv("ISOEE_LOG"); level != nullptr && *level != '\0') {
    util::set_log_level(util::parse_log_level(level));
  }

  util::Cli cli("experiment harness (shared flags; figures print to stdout + CSV)");
  // Bench binaries take flags only: a stray positional token is almost always
  // a typo'd flag (`-cache-dir=X`, `cache-dir X`) that would otherwise be
  // silently ignored — e.g. running cold despite naming a cache directory.
  cli.no_positional()
      .flag("csv-dir", detail::csv_dir(), "directory for CSV output")
      .flag("seed", "", "noise-seed override (empty = machine preset default)")
      .flag("jobs", "1", "host-thread budget (1 = serial, 0 = all cores)")
      .flag("engine-workers", "0", "fiber-engine workers per simulation (0 = auto)")
      .flag("cache-dir", "", "result-cache directory (empty = caching off)")
      .flag("cache-max-mb", "0", "result-cache size cap in MiB, oldest entries pruned (0 = unbounded)")
      .flag("trace-out", "", "write a Chrome trace of the run to this file")
      .flag("metrics-out", "", "write the metrics snapshot to this .json/.csv file")
      .flag("flame-out", "",
            "sample the fiber scheduler's host time and write collapsed stacks "
            "(flamegraph.pl format) to this file")
      .flag("flame-interval-us", "500", "scheduler-profiler sampling period, microseconds");
  if (!cli.parse(argc, argv)) return false;
  detail::csv_dir() = cli.get("csv-dir");
  const std::string seed = cli.get("seed");
  if (!seed.empty()) {
    detail::seed_overridden() = true;
    detail::seed_value() = static_cast<std::uint64_t>(cli.get_int("seed"));
  }
  detail::exec_cfg().jobs = static_cast<int>(cli.get_int("jobs"));
  const auto engine_workers = cli.get_int("engine-workers");
  if (engine_workers < 0) {
    ISOEE_ERROR("--engine-workers must be >= 0 (0 = automatic), got %lld",
                static_cast<long long>(engine_workers));
    return false;
  }
  sim::set_default_engine_workers(static_cast<int>(engine_workers));
  detail::exec_cfg().cache_dir = cli.get("cache-dir");
  detail::exec_cfg().cache_max_bytes =
      static_cast<std::uint64_t>(cli.get_int("cache-max-mb")) * (1ull << 20);
  detail::trace_out() = cli.get("trace-out");
  detail::metrics_out() = cli.get("metrics-out");
  detail::flame_out() = cli.get("flame-out");
  if (!detail::trace_out().empty()) {
    obs::set_global_sink(&detail::trace_collector());
  }
  if (!detail::flame_out().empty()) {
    obs::SchedProfiler::Options prof;
    prof.interval_us = static_cast<std::uint64_t>(cli.get_int("flame-interval-us"));
    obs::sched_profiler().start(prof);
  }
  if (!detail::trace_out().empty() || !detail::metrics_out().empty() ||
      !detail::flame_out().empty()) {
    std::atexit(detail::write_observability_artifacts);
  }

  std::error_code ec;
  std::filesystem::create_directories(detail::csv_dir(), ec);
  if (ec && !std::filesystem::is_directory(detail::csv_dir())) {
    ISOEE_ERROR("cannot create --csv-dir %s (%s)", detail::csv_dir().c_str(),
                ec.message().c_str());
    return false;
  }
  return true;
}

inline const char* out_dir() { return detail::csv_dir().c_str(); }

/// The process's one executor, built on first use from --jobs / --cache-dir
/// (so after init), for handing to EnergyStudy and the surface generators.
inline exec::Executor& executor() {
  static exec::Executor executor(detail::exec_cfg());
  return executor;
}

/// Runs `cases` as one batch on executor() and returns their payloads in
/// order; throws when a case failed.
inline std::vector<std::string> run_cases(const std::vector<exec::Case>& cases) {
  std::vector<std::string> payloads;
  for (exec::CaseResult& r : executor().run(cases)) {
    if (!r.ok()) throw std::runtime_error("bench case failed: " + r.error);
    payloads.push_back(std::move(r.payload));
  }
  return payloads;
}

/// Prints a section header.
inline void heading(const std::string& title, const std::string& paper_note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!paper_note.empty()) std::printf("paper: %s\n", paper_note.c_str());
}

/// Prints the table and writes it as CSV under <csv-dir>/<name>.csv.
/// A failed CSV write is a broken experiment artifact — fail the whole run
/// loudly instead of printing a table that silently never landed on disk.
inline void emit(const util::Table& table, const std::string& name) {
  std::fputs(table.to_string().c_str(), stdout);
  const std::string path = std::string(out_dir()) + "/" + name + ".csv";
  if (!table.write_csv(path)) {
    ISOEE_ERROR("failed to write %s", path.c_str());
    std::exit(1);
  }
  std::printf("[csv] %s\n", path.c_str());
}

/// Prints an EE surface as table + ASCII shade map and writes the CSV.
inline void emit_surface(const analysis::EeSurface& surface, const std::string& name) {
  std::printf("%s\n", surface.title.c_str());
  emit(analysis::surface_table(surface), name);
  std::fputs(analysis::surface_ascii(surface).c_str(), stdout);
}

/// The validation experiments run with noise enabled — the "real hardware".
/// Honours the --seed override so CI can vary or pin the noise process.
inline sim::MachineSpec with_noise(sim::MachineSpec machine) {
  machine.noise.enabled = true;
  if (detail::seed_overridden()) machine.noise.seed = detail::seed_value();
  return machine;
}

}  // namespace isoee::bench
