// Process-wide metrics registry: named counters, gauges, and fixed-bound
// histograms, snapshotted deterministically to one JSON form (and to
// Prometheus text for scrapers).
//
// This absorbs the ad-hoc counters that used to live in each subsystem
// (engine run counts, smpi tag-allocator stats, exec batch stats, result-cache
// hit/miss) behind one naming convention: `<layer>.<noun>[_<unit>]`, e.g.
// `sim.runs_started`, `smpi.collective_bytes`, `exec.cache_hits`.
//
// All mutation paths are lock-free atomics, so instrumentation is safe from
// rank threads and cheap enough to stay always-on. Values are sums / maxima
// of deterministic per-case quantities, so a snapshot after a batch is
// identical for every --jobs value. Name lookup takes a registry mutex —
// resolve once and cache the returned reference (stable for the process
// lifetime; reset() zeroes values in place, it never invalidates references).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace isoee::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write or running-max scalar.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (high-water-mark semantics).
  void set_max(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram with fixed, deterministic bucket upper bounds (ascending; an
/// implicit +inf bucket catches the rest). Bounds are set at registration and
/// never change, so snapshots from different runs are comparable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i` (i == bounds().size() is the +inf bucket).
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Shared fixed bucket bounds so same-unit histograms are comparable.
///
/// Time (seconds), one bucket per decade:
///   {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}  (+Inf implicit)
std::span<const double> default_time_buckets_s();
/// Sizes (bytes), one bucket per x16:
///   {64, 1 KiB, 16 KiB, 256 KiB, 4 MiB, 64 MiB, 1 GiB, 16 GiB}  (+Inf implicit)
std::span<const double> default_size_buckets();
/// Signed relative error, symmetric around zero (for drift tracking):
///   {-0.5, -0.2, -0.1, -0.05, -0.02, 0, 0.02, 0.05, 0.1, 0.2, 0.5}  (+Inf implicit)
std::span<const double> default_rel_error_buckets();

/// One snapshot row. Histograms expand Prometheus-style: one cumulative row
/// per bucket named `<name>_bucket{le="<bound>"}` (upper bound rendered with
/// %.12g; the implicit catch-all bucket is `le="+Inf"`), plus `<name>_sum`
/// and `<name>_count`. Rows are sorted by name, which is lexicographic —
/// consumers that need buckets in bound order must sort by parsed `le`.
struct MetricSample {
  std::string name;
  std::string kind;   // "counter" | "gauge" | "histogram"
  std::string value;  // rendered: integers verbatim, doubles %.17g
};

class MetricsRegistry {
 public:
  /// The process-wide registry used by all instrumentation points.
  static MetricsRegistry& global();

  /// Returns the metric registered under `name`, creating it on first use.
  /// References remain valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is consulted only on first registration; later calls must pass
  /// the same bounds (checked) or empty to reuse the registered ones.
  Histogram& histogram(const std::string& name, std::span<const double> bounds);

  /// All metrics sorted by (kind-independent) name — deterministic.
  std::vector<MetricSample> snapshot() const;

  /// The snapshot as one line of JSON, keyed by metric name, in snapshot
  /// order: `{"a.b":{"kind":"counter","value":1},...}`. The service `metrics`
  /// reply and every --metrics-out file; util::parse_json reads it back.
  std::string render_json() const;
  /// Writes render_json() and a newline to `path`. Returns false on I/O error.
  bool write_json(const std::string& path) const;
  /// Prometheus text exposition format: metric names sanitized to
  /// [a-zA-Z0-9_:] ('.' becomes '_'), `# TYPE` comment per family, histogram
  /// bucket lines `<name>_bucket{le="<bound>"}`, terminated by `# EOF`.
  std::string render_prometheus() const;
  /// Writes render_prometheus() to `path`. Returns false on I/O error.
  bool write_prometheus(const std::string& path) const;

  /// Zeroes every registered metric in place (references stay valid). For
  /// tests; production code only ever accumulates.
  void reset();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
MetricsRegistry& metrics();

}  // namespace isoee::obs
