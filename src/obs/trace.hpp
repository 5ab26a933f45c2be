// Unified tracing layer: the event model every instrumented subsystem emits
// into, a thread-safe in-memory collector, and a deterministic Chrome/Perfetto
// Trace Event Format exporter.
//
// Events live on *virtual time* (the simulated clocks), never the host clock:
// a traced run is a reproducible artifact, byte-identical across reruns at the
// same seed and across host-thread interleavings. The taxonomy (see
// docs/OBSERVABILITY.md):
//
//   cat "sim"       spans   one per timeline segment (compute/memory/network/
//                           io/idle), tid = rank, args {ghz}
//   cat "smpi"      spans   one per collective call from the Comm façade,
//                           args {algo, bytes, p}; nested calls nest by time
//   cat "phase"     spans   application phase markers (powerpack::ScopedPhase)
//   cat "governor"  instants one per governor decision, args {policy, reason,
//                           gear_before, gear_after, rank_w, cluster_w}
//   cat "sim"       instants "dvfs" on every actuated gear change
//   cat "pt2pt"     flows   send -> recv pair arrows (FIFO per (src,dst,tag))
//
// Sinks receive events concurrently from rank threads and must be
// thread-safe; the collector serialises with a mutex and sorts on export, so
// host scheduling never leaks into the artifact.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace isoee::obs {

/// One key/value event argument. `json` is a pre-rendered JSON value fragment
/// (use the arg_* helpers); rendering at emit time keeps the writer trivial
/// and the comparison semantics exact.
struct TraceArg {
  std::string key;
  std::string json;
};

TraceArg arg_num(std::string key, double value);    // %.17g (round-trip exact)
TraceArg arg_int(std::string key, long long value);
TraceArg arg_str(std::string key, std::string_view value);  // JSON-escaped

/// One trace event on virtual time.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSpan = 0,       // Chrome "X" (complete) event: [t0, t0+dur)
    kInstant = 1,    // Chrome "i" (instant) event at t0, thread scope
    kFlowBegin = 2,  // Chrome "s" flow start at t0 (message departure)
    kFlowEnd = 3,    // Chrome "f" flow finish at t0 (message receipt)
  };

  Kind kind = Kind::kSpan;
  int rank = 0;       // exported as tid
  double t0 = 0.0;    // virtual seconds
  double dur = 0.0;   // spans only
  std::string name;
  std::string cat;
  std::uint64_t flow_id = 0;  // flow events only
  std::vector<TraceArg> args;
};

/// Receives events from instrumentation points. Implementations must be
/// thread-safe: rank threads emit concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(TraceEvent event) = 0;
};

/// The standard sink: buffers every event in memory; `sorted()` returns them
/// in a canonical order independent of host scheduling (same-thread emission
/// order breaks ties, which is deterministic because each rank emits its own
/// events in program order).
class TraceCollector : public TraceSink {
 public:
  void on_event(TraceEvent event) override;

  /// Events sorted by (t0, rank, kind, cat, name, dur, flow_id), stable.
  std::vector<TraceEvent> sorted() const;

  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// Deterministic Chrome Trace Event Format (JSON) exporter. Timestamps are
/// microseconds of virtual time printed with %.17g, so loading the file
/// recovers the emitted doubles exactly. The output loads in Perfetto /
/// chrome://tracing and is byte-identical across reruns at the same seed.
class ChromeTraceWriter {
 public:
  /// Renders `sorted` events (from TraceCollector::sorted()) as a trace.json
  /// string. `metadata` lands in "otherData".
  static std::string render(
      std::span<const TraceEvent> sorted,
      const std::vector<std::pair<std::string, std::string>>& metadata = {});

  /// Renders and writes to `path` (parent dirs created). Returns false (and
  /// logs) on I/O failure.
  static bool write(std::span<const TraceEvent> sorted, const std::string& path,
                    const std::vector<std::pair<std::string, std::string>>& metadata = {});
};

}  // namespace isoee::obs
