// Shared plumbing of the benchmark harness: timing, statistics, spans of
// traced runs, exact-count snapshots and the expected-value table that
// simulated outputs are checked against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (util::percentile: linear interpolation); 0 when empty.
inline double median(std::span<const double> v) { return isoee::util::percentile(v, 50.0); }

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// splitmix64: derives independent per-purpose streams from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Records one span of host time into a traced pass's collector. Start times
/// are seconds since the first recorded span, so the written Chrome trace
/// shows every pass of the run on one host-time axis.
void record_span(isoee::obs::TraceCollector& trace, const std::string& name,
                 Clock::time_point t0, Clock::time_point t1, int tid = 0);

/// Durations (seconds) of every span called `name`.
std::vector<double> span_durations(const isoee::obs::TraceCollector& trace,
                                   const std::string& name);

/// One timed pass over a workload's operation stream.
struct Pass {
  isoee::obs::TraceCollector* trace = nullptr;  // non-null only in a traced pass
  std::vector<double> latencies_s;              // one per operation
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Exact program counters read from the process metrics registry; deltas
/// between two snapshots are the work a pass did.
struct Counts {
  std::uint64_t runs_started = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  static Counts now();
  Counts operator-(const Counts& o) const {
    return {runs_started - o.runs_started, events - o.events, messages - o.messages,
            bytes - o.bytes};
  }
  bool operator==(const Counts&) const = default;
};

/// Virtual-time and counter outputs of one simulated job, as stored in the
/// benchmark's expected-value table.
struct SimOutcome {
  double makespan = 0.0;
  double energy = 0.0;
  std::uint64_t events = 0;
  std::uint64_t instructions = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Expected values keyed by operation configuration. Doubles compare to a
/// 1e-9 relative band (reassociation in a rewritten kernel may move the last
/// bits of a sum); counts compare exactly.
class Expected {
 public:
  bool load(const std::string& path);
  bool save(const std::string& path) const;

  void put(const std::string& key, const SimOutcome& v) { sims_[key] = v; }
  void put_text(const std::string& key, const std::string& v) { texts_[key] = v; }

  /// Empty when `got` matches the stored entry; otherwise a description.
  std::string check(const std::string& key, const SimOutcome& got) const;
  std::string check_text(const std::string& key, const std::string& got) const;

 private:
  std::map<std::string, SimOutcome> sims_;
  std::map<std::string, std::string> texts_;
};

/// Ordered metric name -> (value, unit).
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Relative closeness within `rel` (exact for equal values, including 0).
bool near(double a, double b, double rel);

}  // namespace perfbench
