// trace_stats: inspect, validate, and diff trace.json files emitted by the
// obs layer (bench --trace-out, ChromeTraceWriter).
//
//   trace_stats run.json                     report one trace
//   trace_stats a.json b.json                diff A vs B (phases/collectives)
//   trace_stats run.json --validate          structural validation only
//   trace_stats run.json --csv out/prefix    also write report tables as CSV
//   trace_stats run.json --metrics m.json    also report the counters of a
//                                            --metrics-out snapshot, engine.*
//                                            rows first
//
// Energy attribution joins every span against the per-rank segment timeline
// reconstructed from the same file, using the PowerPack power model of
// --machine (default: the trace's otherData.machine, else system_g).
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchtools/tracestats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using isoee::benchtools::AttributionRow;
using isoee::benchtools::DiffRow;
using isoee::benchtools::LoadedTrace;
using isoee::benchtools::TraceReport;

isoee::util::Table rows_table(const std::vector<AttributionRow>& rows) {
  isoee::util::Table table({"name", "count", "time_s", "energy_J"});
  for (const auto& r : rows) {
    table.add_row({r.name, isoee::util::num(static_cast<long long>(r.count)),
                   isoee::util::num(r.time_s, 6), isoee::util::num(r.energy_j, 6)});
  }
  return table;
}

isoee::util::Table diff_table(const std::vector<DiffRow>& rows) {
  isoee::util::Table table({"name", "time_a_s", "time_b_s", "dtime_s", "energy_a_J",
                            "energy_b_J", "denergy_J"});
  for (const auto& r : rows) {
    table.add_row({r.name, isoee::util::num(r.time_a, 6), isoee::util::num(r.time_b, 6),
                   isoee::util::num(r.time_delta(), 6), isoee::util::num(r.energy_a, 6),
                   isoee::util::num(r.energy_b, 6),
                   isoee::util::num(r.energy_delta(), 6)});
  }
  return table;
}

void print_section(const char* title, const isoee::util::Table& table) {
  std::printf("\n%s\n%s", title, table.to_string().c_str());
}

void print_report(const std::string& path, const TraceReport& report) {
  std::printf("trace   %s\n", path.c_str());
  std::printf("ranks   %d   events %zu   makespan %.6f s   energy %.6f J\n",
              report.nranks, report.events, report.makespan_s, report.total_energy_j);
  std::printf(
      "msgs    %llu   dvfs changes %llu   governor decisions %llu (actuations %llu)\n",
      static_cast<unsigned long long>(report.messages),
      static_cast<unsigned long long>(report.dvfs_changes),
      static_cast<unsigned long long>(report.governor_decisions),
      static_cast<unsigned long long>(report.governor_actuations));
  print_section("activity attribution (cat sim)", rows_table(report.activities));
  if (!report.collectives.empty()) {
    print_section("collective attribution (cat smpi)", rows_table(report.collectives));
  }
  if (!report.phases.empty()) {
    print_section("phase attribution (cat phase)", rows_table(report.phases));
  }
}

/// Reports a --metrics-out snapshot, engine.* rows first.
void print_metrics_file(const std::string& path) {
  isoee::util::Table table({"metric", "kind", "value"});
  for (const auto& row : isoee::benchtools::load_metrics(path)) {
    table.add_row({row.name, row.kind, isoee::util::num17(row.value)});
  }
  std::printf("\nmetrics snapshot (%s)\n%s", path.c_str(), table.to_string().c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// --flame: report (or, with --validate, just check) collapsed-stack files
/// emitted by the fiber-scheduler host-time profiler (bench --flame-out).
int flame_mode(const std::vector<std::string>& paths, bool validate) {
  int bad = 0;
  for (const auto& path : paths) {
    std::vector<isoee::benchtools::CollapsedLine> lines;
    std::vector<std::string> problems;
    try {
      lines = isoee::benchtools::parse_collapsed(read_file(path));
      problems = isoee::benchtools::validate_collapsed(lines);
    } catch (const std::exception& e) {
      problems.push_back(e.what());
    }
    if (!problems.empty()) {
      ++bad;
      std::printf("%s: INVALID\n", path.c_str());
      for (const auto& p : problems) std::printf("  %s\n", p.c_str());
      continue;
    }
    std::uint64_t total = 0;
    for (const auto& l : lines) total += l.samples;
    std::printf("%s: OK (%zu stacks, %llu samples)\n", path.c_str(), lines.size(),
                static_cast<unsigned long long>(total));
    if (validate) continue;

    const auto share = [total](std::uint64_t n) {
      return total > 0 ? 100.0 * static_cast<double>(n) / static_cast<double>(total) : 0.0;
    };
    isoee::util::Table phases({"phase", "samples", "share_pct"});
    for (const auto& [name, n] : isoee::benchtools::collapsed_by_depth(lines, 2)) {
      phases.add_row({name, isoee::util::num(static_cast<long long>(n)),
                      isoee::util::num(share(n), 2)});
    }
    print_section("scheduler phases (host time)", phases);

    isoee::util::Table workers({"worker", "samples", "share_pct"});
    for (const auto& [name, n] : isoee::benchtools::collapsed_by_depth(lines, 1)) {
      workers.add_row({name, isoee::util::num(static_cast<long long>(n)),
                       isoee::util::num(share(n), 2)});
    }
    print_section("workers", workers);

    isoee::util::Table ranks({"rank_frame", "samples", "share_pct"});
    int shown = 0;
    for (const auto& [name, n] : isoee::benchtools::collapsed_by_depth(lines, 3)) {
      if (name.empty() || shown >= 10) continue;
      ranks.add_row({name, isoee::util::num(static_cast<long long>(n)),
                     isoee::util::num(share(n), 2)});
      ++shown;
    }
    if (shown > 0) print_section("hottest fiber_run ranks (top 10)", ranks);
  }
  return bad == 0 ? 0 : 1;
}

int validate_only(const std::vector<std::string>& paths) {
  int bad = 0;
  for (const auto& path : paths) {
    const LoadedTrace trace = isoee::benchtools::load_trace(path);
    const auto problems = isoee::benchtools::validate_trace(trace);
    if (problems.empty()) {
      std::printf("%s: OK (%zu events)\n", path.c_str(), trace.events.size());
      continue;
    }
    ++bad;
    std::printf("%s: INVALID\n", path.c_str());
    for (const auto& p : problems) std::printf("  %s\n", p.c_str());
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  isoee::util::Cli cli(
      "trace_stats: report / validate / diff obs trace.json files.\n"
      "usage: trace_stats <trace.json> [<other.json>] [flags]");
  cli.flag("machine", "auto", "power model: system_g | dori | auto (trace metadata)")
      .flag("validate", "false", "structural validation only; exit 1 when invalid")
      .flag("csv", "", "also write report tables under this path prefix")
      .flag("metrics", "", "also report a --metrics-out snapshot (engine.* first)")
      .flag("flame", "false",
            "positionals are collapsed-stack .folded files from the scheduler "
            "profiler; report (or --validate) them");
  if (!cli.parse(argc, argv)) return 2;

  const auto& paths = cli.positional();
  if (cli.get_bool("flame")) {
    if (paths.empty()) {
      std::fprintf(stderr, "%s\n", cli.usage().c_str());
      return 2;
    }
    try {
      return flame_mode(paths, cli.get_bool("validate"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_stats: %s\n", e.what());
      return 1;
    }
  }
  if (paths.empty() || paths.size() > 2) {
    std::fprintf(stderr, "%s\n", cli.usage().c_str());
    return 2;
  }

  try {
    if (cli.get_bool("validate")) return validate_only(paths);

    const LoadedTrace a = isoee::benchtools::load_trace(paths[0]);
    for (const auto& problem : isoee::benchtools::validate_trace(a)) {
      std::fprintf(stderr, "warning: %s: %s\n", paths[0].c_str(), problem.c_str());
    }
    const isoee::sim::MachineSpec machine =
        isoee::benchtools::machine_for_trace(cli.get("machine"), a);
    const TraceReport report_a = isoee::benchtools::analyze(a, machine);
    print_report(paths[0], report_a);

    if (const std::string metrics = cli.get("metrics"); !metrics.empty()) {
      print_metrics_file(metrics);
    }

    const std::string csv = cli.get("csv");
    if (!csv.empty()) {
      rows_table(report_a.activities).write_csv(csv + "_activities.csv");
      rows_table(report_a.collectives).write_csv(csv + "_collectives.csv");
      rows_table(report_a.phases).write_csv(csv + "_phases.csv");
    }

    if (paths.size() == 2) {
      const LoadedTrace b = isoee::benchtools::load_trace(paths[1]);
      for (const auto& problem : isoee::benchtools::validate_trace(b)) {
        std::fprintf(stderr, "warning: %s: %s\n", paths[1].c_str(), problem.c_str());
      }
      const TraceReport report_b = isoee::benchtools::analyze(b, machine);
      std::printf("\n");
      print_report(paths[1], report_b);

      std::printf("\n=== diff (B - A) ===\n");
      const auto phases = isoee::benchtools::diff_rows(report_a.phases, report_b.phases);
      const auto colls =
          isoee::benchtools::diff_rows(report_a.collectives, report_b.collectives);
      const auto acts =
          isoee::benchtools::diff_rows(report_a.activities, report_b.activities);
      print_section("activity diff", diff_table(acts));
      if (!colls.empty()) print_section("collective diff", diff_table(colls));
      if (!phases.empty()) print_section("phase diff", diff_table(phases));
      std::printf("\ntotal energy: A %.6f J   B %.6f J   delta %+.6f J\n",
                  report_a.total_energy_j, report_b.total_energy_j,
                  report_b.total_energy_j - report_a.total_energy_j);
      if (!csv.empty()) diff_table(phases).write_csv(csv + "_phase_diff.csv");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_stats: %s\n", e.what());
    return 1;
  }
  return 0;
}
