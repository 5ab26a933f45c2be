#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace isoee::obs {

namespace {

// Bucket upper bounds are human-chosen round numbers (1e-3, 64, 0.05, ...);
// %.12g keeps them exact while avoiding %.17g artifacts like
// "9.9999999999999995e-07" for 1e-6.
std::string fmt_bound(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return std::string(buf);
}

std::string bucket_row_name(const std::string& name, const std::string& le) {
  return name + "_bucket{le=\"" + le + "\"}";
}

// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
// (`sim.runs_started`) map '.' and any other illegal byte to '_'.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::span<const double> default_time_buckets_s() {
  static const std::array<double, 9> b = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                          1e-1, 1.0,  10.0, 100.0};
  return b;
}

std::span<const double> default_size_buckets() {
  static const std::array<double, 8> b = {64.0,      1024.0,     16384.0,   262144.0,
                                          4194304.0, 67108864.0, 1073741824.0,
                                          17179869184.0};
  return b;
}

std::span<const double> default_rel_error_buckets() {
  static const std::array<double, 11> b = {-0.5, -0.2, -0.1, -0.05, -0.02, 0.0,
                                           0.02, 0.05, 0.1,  0.2,   0.5};
  return b;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed
  return *r;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::vector<double>(bounds.begin(), bounds.end()));
  } else if (!bounds.empty() && bounds.size() != slot->bounds().size()) {
    throw std::invalid_argument("MetricsRegistry: histogram '" + name +
                                "' re-registered with different bucket bounds");
  }
  return *slot;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() * 4);
  for (const auto& [name, c] : counters_) {
    out.push_back({name, "counter", std::to_string(c->value())});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, "gauge", util::num17(g->value())});
  }
  for (const auto& [name, h] : histograms_) {
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      cum += h->bucket_count(i);
      out.push_back({bucket_row_name(name, fmt_bound(h->bounds()[i])), "histogram",
                     std::to_string(cum)});
    }
    cum += h->bucket_count(h->bounds().size());
    out.push_back({bucket_row_name(name, "+Inf"), "histogram", std::to_string(cum)});
    out.push_back({name + "_sum", "histogram", util::num17(h->sum())});
    out.push_back({name + "_count", "histogram", std::to_string(h->count())});
  }
  std::sort(out.begin(), out.end(), [](const MetricSample& a, const MetricSample& b) {
    return std::tie(a.name, a.kind) < std::tie(b.name, b.kind);
  });
  return out;
}

std::string MetricsRegistry::render_json() const {
  std::string out = "{";
  const auto snap = snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (i != 0) out += ',';
    out += util::json_quote(snap[i].name);
    out += ":{\"kind\":\"";
    out += snap[i].kind;
    out += "\",\"value\":";
    out += snap[i].value;
    out += '}';
  }
  return out + "}";
}

namespace {

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    ISOEE_ERROR("MetricsRegistry: cannot open %s", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (!ok) ISOEE_ERROR("MetricsRegistry: short write to %s", path.c_str());
  return ok;
}

}  // namespace

bool MetricsRegistry::write_json(const std::string& path) const {
  return write_text_file(path, render_json() + '\n');
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + util::num17(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      cum += h->bucket_count(i);
      out += p + "_bucket{le=\"" + fmt_bound(h->bounds()[i]) + "\"} " +
             std::to_string(cum) + "\n";
    }
    cum += h->bucket_count(h->bounds().size());
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
    out += p + "_sum " + util::num17(h->sum()) + "\n";
    out += p + "_count " + std::to_string(h->count()) + "\n";
  }
  out += "# EOF\n";
  return out;
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
  return write_text_file(path, render_prometheus());
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace isoee::obs
