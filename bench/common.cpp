#include "bench/common.hpp"

#include <climits>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "bench/figures.hpp"
#include "obs/sched_profiler.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace isoee::bench {

Context::Context(Options options) : options_(std::move(options)), executor_(options_.exec) {
  std::error_code ec;
  std::filesystem::create_directories(options_.csv_dir, ec);
  if (ec && !std::filesystem::is_directory(options_.csv_dir)) {
    throw std::runtime_error("cannot create --csv-dir " + options_.csv_dir + " (" +
                             ec.message() + ")");
  }
  if (!options_.trace_out.empty()) obs::set_global_sink(&trace_);
  if (!options_.flame_out.empty()) {
    obs::SchedProfiler::Options prof;
    prof.interval_us = options_.flame_interval_us;
    obs::sched_profiler().start(prof);
  }
}

Context::~Context() {
  if (const std::string& path = options_.trace_out; !path.empty()) {
    obs::set_global_sink(nullptr);
    const auto events = trace_.sorted();
    if (obs::ChromeTraceWriter::write(events, path, {{"source", "isoee-bench"}})) {
      std::printf("[trace] %s (%zu events)\n", path.c_str(), events.size());
    } else {
      ISOEE_ERROR("failed to write --trace-out %s", path.c_str());
    }
  }
  if (const std::string& path = options_.metrics_out; !path.empty()) {
    if (obs::metrics().write_json(path)) {
      std::printf("[metrics] %s\n", path.c_str());
    } else {
      ISOEE_ERROR("failed to write --metrics-out %s", path.c_str());
    }
  }
  if (const std::string& path = options_.flame_out; !path.empty()) {
    obs::sched_profiler().stop();
    if (obs::sched_profiler().write_collapsed(path)) {
      std::printf("[flame] %s (%llu samples)\n", path.c_str(),
                  static_cast<unsigned long long>(obs::sched_profiler().total_samples()));
    } else {
      ISOEE_ERROR("failed to write --flame-out %s", path.c_str());
    }
  }
}

std::vector<std::string> Context::run_cases(const std::vector<exec::Case>& cases) {
  std::vector<std::string> payloads;
  for (exec::CaseResult& r : executor_.run(cases)) {
    if (!r.ok()) throw std::runtime_error("bench case failed: " + r.error);
    payloads.push_back(std::move(r.payload));
  }
  return payloads;
}

analysis::EnergyStudy Context::study(const sim::MachineSpec& machine,
                                     std::unique_ptr<analysis::BenchmarkAdapter> adapter,
                                     const std::vector<double>& ns, const std::vector<int>& ps) {
  analysis::EnergyStudy study(machine, std::move(adapter), /*measured_calibration=*/true,
                              executor_);
  study.calibrate(ns, ps);
  return study;
}

sim::MachineSpec Context::with_noise(sim::MachineSpec machine) const {
  machine.noise.enabled = true;
  if (options_.seed) machine.noise.seed = *options_.seed;
  return machine;
}

void Context::emit(const util::Table& table, const std::string& name) const {
  std::fputs(table.to_string().c_str(), stdout);
  const std::string path = options_.csv_dir + "/" + name + ".csv";
  if (!table.write_csv(path)) throw std::runtime_error("failed to write " + path);
  std::printf("[csv] %s\n", path.c_str());
}

void Context::emit_surface(const analysis::EeSurface& surface, const std::string& name) const {
  std::printf("%s\n", surface.title.c_str());
  emit(analysis::surface_table(surface), name);
  std::fputs(analysis::surface_ascii(surface).c_str(), stdout);
}

namespace {

std::string row_list() {
  std::string list;
  for (const Row& row : kRows) list += std::string("\n  ") + row.name;
  return list;
}

}  // namespace

std::unique_ptr<Context> init(int argc, const char* const* argv, std::vector<const Row*>* rows) {
  util::set_log_level_from_env();

  Context::Options options;
  util::Cli cli(rows == nullptr
                    ? "experiment harness (shared flags; results print to stdout + CSV)"
                    : "paper figures, tables and ablations: figures [ROW...] [flags] runs "
                      "the named rows in order, every row when none is named; rows:" +
                          row_list());
  if (rows == nullptr) cli.no_positional();
  cli.flag("csv-dir", options.csv_dir, "directory for CSV output")
      .flag("seed", "", "noise-seed override (empty = machine preset default)")
      .flag("jobs", "1", "host-thread budget (1 = serial, 0 = all cores)")
      .flag("engine-workers", "0", "fiber-engine workers per simulation (0 = auto)")
      .flag("cache-dir", "", "result-cache directory (empty = caching off)")
      .flag("cache-max-mb", "0",
            "result-cache size cap in MiB, oldest entries pruned (0 = unbounded)")
      .flag("trace-out", "", "write a Chrome trace of the run to this file")
      .flag("metrics-out", "", "write the metrics snapshot as JSON to this file")
      .flag("flame-out", "",
            "sample the fiber scheduler's host time and write collapsed stacks "
            "(flamegraph.pl format) to this file")
      .flag("flame-interval-us", std::to_string(options.flame_interval_us),
            "scheduler-profiler sampling period, microseconds");
  if (!cli.parse(argc, argv)) return nullptr;
  long long engine_workers = 0;
  try {
    if (!cli.get("seed").empty()) options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.exec.jobs = static_cast<int>(cli.get_int("jobs", 0, INT_MAX));
    engine_workers = cli.get_int("engine-workers", 0, INT_MAX);
    options.exec.cache_max_bytes =
        static_cast<std::uint64_t>(cli.get_int("cache-max-mb", 0, LLONG_MAX >> 20)) << 20;
    options.flame_interval_us = static_cast<std::uint64_t>(cli.get_int("flame-interval-us", 0));
  } catch (const std::invalid_argument& e) {
    ISOEE_ERROR("%s", e.what());
    return nullptr;
  }
  if (rows != nullptr) {
    rows->clear();
    for (const std::string& name : cli.positional()) {
      const Row* found = nullptr;
      for (const Row& row : kRows) {
        if (name == row.name) found = &row;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "unknown row '%s'; rows:%s\n", name.c_str(), row_list().c_str());
        return nullptr;
      }
      rows->push_back(found);
    }
    if (rows->empty()) {
      for (const Row& row : kRows) rows->push_back(&row);
    }
  }
  sim::set_default_engine_workers(static_cast<int>(engine_workers));
  options.csv_dir = cli.get("csv-dir");
  options.exec.cache_dir = cli.get("cache-dir");
  options.trace_out = cli.get("trace-out");
  options.metrics_out = cli.get("metrics-out");
  options.flame_out = cli.get("flame-out");
  try {
    return std::make_unique<Context>(std::move(options));
  } catch (const std::runtime_error& e) {
    ISOEE_ERROR("%s", e.what());
    return nullptr;
  }
}

int run_rows(Context& ctx, const std::vector<const Row*>& rows) {
  int status = 0;
  for (const Row* row : rows) {
    int row_status = 1;
    try {
      row_status = row->run(ctx);
    } catch (const std::exception& e) {
      ISOEE_ERROR("%s: %s", row->name, e.what());
    }
    if (row_status != 0) {
      std::fprintf(stderr, "figures: row %s failed (status %d)\n", row->name, row_status);
      if (status == 0) status = row_status;
    }
  }
  return status;
}

void heading(const std::string& title, const std::string& paper_note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!paper_note.empty()) std::printf("paper: %s\n", paper_note.c_str());
}

}  // namespace isoee::bench
