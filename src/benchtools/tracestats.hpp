// Trace ingestion and attribution for the `trace_stats` CLI.
//
// Reads Chrome Trace Event Format files as emitted by obs::ChromeTraceWriter,
// reconstructs the per-rank segment timelines from the cat=="sim" spans, and
// joins every higher-level span (smpi collectives, application phases) against
// the PowerPack power model to attribute *time and energy* per phase, per
// collective, and per activity. Two traces can be diffed (governor on/off, two
// gears, two algorithms) row by row.
//
// Timestamps round-trip exactly: the writer prints microseconds with %.17g and
// the parser's strtod recovers the emitted double, so energy recomputed here
// matches powerpack::summarize_phases to ~1e-13 J per interval (the unit
// conversion's ulp). JSON comes from util::parse_json, which also reads the
// metrics snapshots that trace_stats --metrics reports.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace isoee::benchtools {

// --- trace model ----------------------------------------------------------

/// One trace event as read back from a trace.json (the subset the exporter
/// emits: X/i/s/f payload events plus M metadata).
struct ParsedEvent {
  std::string ph;    // "X" | "i" | "s" | "f" | "M"
  std::string name;
  std::string cat;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;        // X events
  std::uint64_t flow_id = 0;  // s/f events
  util::JsonValue args;       // object; kNull when absent

  double t0_s() const { return ts_us * 1e-6; }
  double dur_s() const { return dur_us * 1e-6; }
  double t1_s() const { return (ts_us + dur_us) * 1e-6; }

  /// args.key as a number / string, with fallback when absent or mistyped.
  double arg_num(std::string_view key, double fallback = 0.0) const;
  std::string arg_str(std::string_view key, std::string fallback = "") const;
};

struct LoadedTrace {
  std::map<std::string, std::string> metadata;  // "otherData" string members
  std::vector<ParsedEvent> events;              // file order, M events excluded

  int nranks() const;       // 1 + max tid over events
  double makespan_s() const;  // max span end / instant time
};

/// Parses a trace document; throws std::runtime_error on malformed JSON or a
/// structurally broken trace (missing traceEvents, non-object events...).
LoadedTrace parse_trace(std::string_view json);

/// Reads and parses `path`; throws std::runtime_error on I/O failure.
LoadedTrace load_trace(const std::string& path);

/// Structural Trace Event Format validation (the guarantees our exporter
/// makes: required keys per ph, finite non-negative times, flow begin/end
/// pairing, events sorted by ts). Returns problems; empty means valid.
std::vector<std::string> validate_trace(const LoadedTrace& trace);

/// Reconstructs per-rank sim::Segment timelines from the cat=="sim" spans
/// (names map back to sim::Activity, args.ghz to the gear in effect).
std::vector<std::vector<sim::Segment>> segments_of(const LoadedTrace& trace);

// --- attribution -----------------------------------------------------------

/// One attribution row: spans of one name, time summed over ranks and
/// occurrences, energy integrated with the machine's power model over each
/// span's interval on its rank's reconstructed timeline.
struct AttributionRow {
  std::string name;
  std::uint64_t count = 0;
  double time_s = 0.0;
  double energy_j = 0.0;
};

/// Aggregates all spans of `cat` ("phase", "smpi", "sim") by name.
std::vector<AttributionRow> attribute_category(const LoadedTrace& trace,
                                               const sim::MachineSpec& machine,
                                               std::string_view cat);

/// Whole-trace report, as printed by trace_stats.
struct TraceReport {
  int nranks = 0;
  std::size_t events = 0;
  double makespan_s = 0.0;
  double total_energy_j = 0.0;              // integral over all rank timelines
  std::vector<AttributionRow> activities;   // cat "sim"
  std::vector<AttributionRow> collectives;  // cat "smpi"
  std::vector<AttributionRow> phases;       // cat "phase"
  std::uint64_t governor_decisions = 0;     // cat "governor" instants
  std::uint64_t governor_actuations = 0;    // ... with name "actuate"
  std::uint64_t dvfs_changes = 0;           // cat "sim" instants "dvfs"
  std::uint64_t messages = 0;               // flow begin events
};

TraceReport analyze(const LoadedTrace& trace, const sim::MachineSpec& machine);

/// Row-wise A-vs-B join by name (union of names, zeros where absent).
struct DiffRow {
  std::string name;
  std::uint64_t count_a = 0, count_b = 0;
  double time_a = 0.0, time_b = 0.0;
  double energy_a = 0.0, energy_b = 0.0;

  double time_delta() const { return time_b - time_a; }
  double energy_delta() const { return energy_b - energy_a; }
};

std::vector<DiffRow> diff_rows(std::span<const AttributionRow> a,
                               std::span<const AttributionRow> b);

// --- metrics snapshots -----------------------------------------------------

/// One row of a metrics snapshot file (obs::MetricsRegistry::write_json, as
/// `--metrics-out` writes it).
struct MetricRow {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  double value = 0.0;
};

/// Reads a snapshot file with util::parse_json: every row, engine.* rows
/// first (the engine throughput headline), file order otherwise. Throws
/// std::runtime_error naming `path` on I/O failure or a malformed snapshot.
std::vector<MetricRow> load_metrics(const std::string& path);

/// Machine preset lookup for the CLI: a sim::machine_preset name, or "auto"
/// (reads the trace's otherData.machine, defaulting to system_g). Throws
/// std::invalid_argument on an unknown name.
sim::MachineSpec machine_for_trace(const std::string& name, const LoadedTrace& trace);

// --- collapsed stacks (flamegraphs) ----------------------------------------
//
// The fiber-scheduler host-time profiler (obs::SchedProfiler) exports
// semicolon-delimited collapsed-stack text, one stack per line:
//
//   isoee_engine;worker_0;fiber_run;rank_12 345
//
// the format flamegraph.pl / speedscope consume directly. `trace_stats
// --flame` parses, validates, and summarizes these files.

/// One parsed collapsed-stack line.
struct CollapsedLine {
  std::vector<std::string> frames;  // root first
  std::uint64_t samples = 0;
};

/// Parses collapsed-stack text; throws std::runtime_error naming the line on
/// malformed input (no count, zero count, empty frame).
std::vector<CollapsedLine> parse_collapsed(std::string_view text);

/// Structural validation of what SchedProfiler::collapsed() guarantees:
/// lines sorted lexicographically by joined stack, no duplicate stacks, a
/// common root frame, and known scheduler phase names at depth 3 when the
/// root is isoee_engine. Returns problems; empty means valid.
std::vector<std::string> validate_collapsed(const std::vector<CollapsedLine>& lines);

/// Sums samples grouped by the frame at `depth` (root = 0); stacks shorter
/// than depth+1 are grouped under "". Sorted by descending samples, then name.
std::vector<std::pair<std::string, std::uint64_t>> collapsed_by_depth(
    const std::vector<CollapsedLine>& lines, std::size_t depth);

}  // namespace isoee::benchtools
