// perfbench: end-to-end and per-layer benchmark of the iso-EE system.
//
//   perfbench --workload kernels|service_mix --seed N
//             --seconds S --trace 0|1 [--expected FILE] [--work-dir DIR]
//             [--trace-out FILE]
//   perfbench --record-expected FILE [--work-dir DIR]
//
// Prints one JSON object as the last line of standard output:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1 runs
// an untraced and a traced pass and reports the per-layer metrics. See
// perfbench/README.md for the workloads and the metric table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/sched_profiler.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

int g_failures_logged = 0;
bool g_guard_violated = false;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string expected = "perfbench/expected.txt";
  std::string work_dir = ".bench_build/perfbench/work";
  std::string trace_out;
  std::string record;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (flag == "--expected") {
      a.expected = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--record-expected") {
      a.record = value;
    } else {
      return false;
    }
  }
  return !a.record.empty() || !a.workload.empty();
}

std::unique_ptr<Workload> make(const std::string& name, const Env& env) {
  if (name == "kernels") return make_kernels(env);
  if (name == "collectives") return make_collectives(env);
  if (name == "service_mix") return make_service_mix(env);
  return nullptr;
}

/// Rounds a workload runs in a traced run's probe pass when it is not the
/// workload under test, so every traced run reports every per-layer metric.
int probe_rounds(const std::string& name) {
  if (name == "service_mix") return 5;
  return name == "collectives" ? 3 : 1;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Scheduler-profiler shares by phase over the traced pass.
void profiler_shares(Metrics& out) {
  const auto rows = isoee::obs::sched_profiler().report();
  std::map<std::string, double> by_phase;
  double total = 0.0;
  for (const auto& row : rows) {
    by_phase[isoee::obs::sched_phase_name(row.phase)] += static_cast<double>(row.samples);
    total += static_cast<double>(row.samples);
  }
  for (const char* phase : {"fiber_run", "heap_dispatch", "mailbox_wait", "idle"}) {
    const double share = total > 0 ? by_phase[phase] / total : 0.0;
    out[std::string("sim.") + phase + "_frac"] = {share, "frac"};
  }
}

/// Rounds for `seconds` of measurement: at least 150 operations, so p90
/// always has at least ten samples above it.
int rounds_for(const Workload& wl, double seconds) {
  const int min_rounds = (150 + wl.ops_per_round() - 1) / wl.ops_per_round();
  const auto sized = static_cast<int>(std::lround(seconds * wl.rounds_per_second()));
  return std::max(min_rounds, sized);
}

int run_end_to_end(const Args& args, const Env& env) {
  std::unique_ptr<Workload> wl = make(args.workload, env);
  const int rounds = rounds_for(*wl, args.seconds);

  // Set up five times from scratch and report the median: a single set-up
  // of a few hundred milliseconds jitters by 10-30% between runs here.
  std::vector<double> setup_s;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    wl->setup(args.seed, rounds);
    setup_s.push_back(seconds_since(t0));
  }

  Pass pass;
  wl->run(0, rounds, pass);
  const std::uint64_t failed = pass.failed + wl->verify();

  const std::vector<double>& lat = pass.latencies_s;
  const double p90 = isoee::util::percentile(lat, 90.0);
  const auto above =
      std::count_if(lat.begin(), lat.end(), [&](double v) { return v > p90; });
  const double slowest = lat.empty() ? 0.0 : *std::max_element(lat.begin(), lat.end());
  if (above < 10 || slowest > 1.0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report %s: %lld samples above p90 (need 10), "
                 "slowest operation %.3f s (limit 1 s)\n",
                 args.workload.c_str(), static_cast<long long>(above), slowest);
    return 3;
  }

  Metrics m;
  m["setup_s"] = {median(setup_s), "s"};
  m["run_s"] = {pass.wall_s, "s"};
  m["qps"] = {static_cast<double>(pass.attempted) / pass.wall_s, "1/s"};
  m["latency_p50_ms"] = {median(lat) * 1e3, "ms"};
  m["latency_p90_ms"] = {p90 * 1e3, "ms"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  const Counts& c = wl->per_round;
  std::fprintf(stderr,
               "perfbench: %s seed=%llu rounds=%d ops=%llu wall %.3f s; exact counts "
               "per round: runs=%llu events=%llu messages=%llu bytes=%llu\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), rounds,
               static_cast<unsigned long long>(pass.attempted), pass.wall_s,
               static_cast<unsigned long long>(c.runs_started),
               static_cast<unsigned long long>(c.events),
               static_cast<unsigned long long>(c.messages),
               static_cast<unsigned long long>(c.bytes));
  print_result(failed == 0 && !guard_violated(), pass.attempted, failed, m);
  return 0;
}

int run_traced(const Args& args, const Env& env) {
  std::unique_ptr<Workload> wl = make(args.workload, env);
  const int rounds = rounds_for(*wl, args.seconds / 2.0);  // per pass
  wl->setup(args.seed, 2 * rounds);

  // The untraced and traced passes alternate in blocks, so both see the
  // same stretches of a shared host's speed and their ratio measures the
  // tracing overhead rather than drift.
  constexpr int kBlocks = 4;
  isoee::obs::TraceCollector trace;
  Pass untraced, traced;
  traced.trace = &trace;
  isoee::obs::sched_profiler().reset();
  for (int b = 0, next = 0; b < kBlocks; ++b) {
    const int n = rounds * (b + 1) / kBlocks - rounds * b / kBlocks;
    if (n == 0) continue;
    wl->run(next, n, untraced);
    isoee::obs::sched_profiler().start({/*interval_us=*/200, /*top_ranks=*/1});
    wl->run(next + n, n, traced);
    isoee::obs::sched_profiler().stop();
    next += 2 * n;
  }
  std::uint64_t failed = untraced.failed + traced.failed + wl->verify();

  Metrics m;
  const Counts& c = wl->per_round;
  m["sim.events"] = {static_cast<double>(c.events), "count"};
  m["sim.runs_started"] = {static_cast<double>(c.runs_started), "count"};
  m["smpi.messages"] = {static_cast<double>(c.messages), "count"};
  m["smpi.bytes"] = {static_cast<double>(c.bytes), "count"};
  m["obs.trace_overhead_pct"] = {(traced.wall_s / untraced.wall_s - 1.0) * 100.0, "%"};
  profiler_shares(m);
  wl->layer_metrics(traced, m);

  // Layers this workload does not drive: a short probe pass of the owning
  // workload's stream (same seed), so every traced run reports every metric.
  for (const char* other : {"kernels", "collectives", "service_mix"}) {
    if (args.workload == other) continue;
    std::unique_ptr<Workload> probe = make(other, env);
    probe->setup(args.seed, probe_rounds(other));
    Pass pass;
    pass.trace = &trace;
    probe->run(0, probe_rounds(other), pass);
    failed += pass.failed + probe->verify();
    probe->layer_metrics(pass, m);
  }
  layer_probes(args.seed, m);

  if (!args.trace_out.empty() &&
      !isoee::obs::ChromeTraceWriter::write(trace.sorted(), args.trace_out,
                                            {{"clock", "host"}})) {
    record_failure("cannot write " + args.trace_out);
  }
  bool finite = true;
  for (auto& [name, metric] : m) {
    if (std::isfinite(metric.value)) continue;
    finite = false;
    record_failure("metric " + name + " is not finite");
    metric.value = 0.0;  // JSON has no NaN; `correct` is false
  }
  print_result(failed == 0 && finite && !guard_violated(),
               untraced.attempted + traced.attempted, failed, m);
  return 0;
}

}  // namespace

void record_failure(const std::string& what) {
  if (g_failures_logged++ < 20) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

void record_guard_violation(const std::string& what) {
  g_guard_violated = true;
  std::fprintf(stderr, "perfbench: EXACT-COUNT GUARD (nondeterminism): %s\n",
               what.c_str());
}

bool guard_violated() { return g_guard_violated; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload kernels|service_mix --seed N "
                 "--seconds S --trace 0|1 [--expected FILE] [--work-dir DIR] "
                 "[--trace-out FILE]\n       perfbench --record-expected FILE\n");
    return 2;
  }
  // One engine worker for every simulation (the automatic policy's choice
  // below p=256), and one load-generating process.
  isoee::sim::set_default_engine_workers(1);
  std::filesystem::create_directories(args.work_dir);

  Expected expected;
  Env env{&expected, args.work_dir};
  if (!args.record.empty()) {
    record_kernels(expected);
    record_collectives(expected);
    record_service_mix(env, expected);
    return expected.save(args.record) ? 0 : 1;
  }
  if (!expected.load(args.expected)) {
    std::fprintf(stderr, "perfbench: cannot read expected values from %s\n",
                 args.expected.c_str());
    return 1;
  }
  if (args.workload != "kernels" && args.workload != "service_mix") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    return args.trace ? run_traced(args, env) : run_end_to_end(args, env);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
