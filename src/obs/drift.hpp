// Model-drift watchdog: tracks (prediction, simulated-actual) pairs and flips
// a `model_health: degraded` flag when the analytic model stops tracking the
// simulator.
//
// The paper's Figs 3-4 validate the iso-energy-efficiency model against
// measurement offline, at calibration time. This monitor makes that check
// always-on: every place the system naturally produces both a closed-form
// prediction and a simulated actual — `EnergyStudy::validate`, the `src/check`
// differential oracles, and service requests that fall through the model tier
// to the sim tier — feeds the pair here.
//
// Error definition: signed relative error e = (predicted - actual) / actual.
// Pairs with a non-finite or non-positive actual are counted as skipped and
// otherwise ignored. Per (machine, app, p, gear, quantity) key the monitor
// keeps a sample count, the last signed error, and two EWMAs:
//
//   ewma_signed <- alpha * e   + (1 - alpha) * ewma_signed
//   ewma_abs    <- alpha * |e| + (1 - alpha) * ewma_abs
//
// (both seeded with the first sample). A key is *degraded* once it has at
// least `min_samples` samples and `ewma_abs > threshold`; the monitor is
// degraded while any key is. Defaults (threshold 0.15, alpha 0.25,
// min_samples 5) are chosen so the ~5% agreement of a calibrated model never
// trips, while a +30% mis-calibration trips within min_samples pairs — see
// docs/OBSERVABILITY.md for the derivation.
//
// Determinism: counts, histograms, and the degraded flag are order-independent
// and therefore identical across reruns and --jobs values. EWMA gauges are
// recording-order-sensitive; under a parallel sweep they are only
// reproducible for serially-fed keys (tests that assert on EWMA values drive
// traffic serially).
//
// Mirrored metrics (when constructed over a MetricsRegistry):
//   drift.samples            counter   pairs accepted
//   drift.skipped            counter   pairs dropped (bad actual)
//   drift.rel_error          histogram signed e, default_rel_error_buckets()
//   drift.max_ewma_abs_err   gauge     current max ewma_abs over keys
//   drift.degraded_keys      gauge     number of currently degraded keys
//   drift.model_degraded     gauge     0/1, the watchdog flag
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace isoee::obs {

/// Identifies one prediction stream. `f_ghz` is the DVFS gear (0 when the
/// stream is not gear-specific); `quantity` is what is being predicted
/// ("energy_j", "time_s", ...).
struct DriftKey {
  std::string machine;
  std::string app;
  int p = 0;
  double f_ghz = 0.0;
  std::string quantity;

  friend bool operator<(const DriftKey& a, const DriftKey& b) {
    if (a.machine != b.machine) return a.machine < b.machine;
    if (a.app != b.app) return a.app < b.app;
    if (a.p != b.p) return a.p < b.p;
    if (a.f_ghz != b.f_ghz) return a.f_ghz < b.f_ghz;
    return a.quantity < b.quantity;
  }
  friend bool operator==(const DriftKey& a, const DriftKey& b) {
    return a.machine == b.machine && a.app == b.app && a.p == b.p &&
           a.f_ghz == b.f_ghz && a.quantity == b.quantity;
  }
};

struct DriftConfig {
  /// A key whose EWMA |relative error| exceeds this is degraded.
  double threshold = 0.15;
  /// EWMA smoothing factor (weight of the newest sample).
  double alpha = 0.25;
  /// Samples required on a key before it may be declared degraded.
  std::uint64_t min_samples = 5;
};

/// Per-key state as reported by snapshot().
struct DriftKeyStats {
  DriftKey key;
  std::uint64_t samples = 0;
  double last_signed = 0.0;
  double ewma_signed = 0.0;
  double ewma_abs = 0.0;
  bool degraded = false;
};

class DriftMonitor {
 public:
  /// The process-wide monitor all built-in feed points report to.
  static DriftMonitor& global();

  /// `registry` may be null to keep the monitor self-contained (tests).
  explicit DriftMonitor(DriftConfig cfg = {},
                        MetricsRegistry* registry = nullptr);

  /// Feed one (prediction, simulated-actual) pair.
  void record(const DriftKey& key, double predicted, double actual);

  /// True while any key is degraded.
  bool degraded() const;
  /// Number of currently degraded keys.
  std::size_t degraded_count() const;
  /// All keys, sorted by key — deterministic given deterministic inputs.
  std::vector<DriftKeyStats> snapshot() const;
  /// Subset of snapshot() with .degraded set, same order.
  std::vector<DriftKeyStats> degraded_keys() const;

  const DriftConfig& config() const { return cfg_; }

  /// Drops all keys and zeroes the mirrored gauges. For tests.
  void reset();

  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

 private:
  struct Entry {
    std::uint64_t samples = 0;
    double last_signed = 0.0;
    double ewma_signed = 0.0;
    double ewma_abs = 0.0;
  };

  bool entry_degraded(const Entry& e) const;  // caller holds mu_
  void refresh_metrics();                     // caller holds mu_

  mutable std::mutex mu_;
  const DriftConfig cfg_;
  MetricsRegistry* registry_;
  std::map<DriftKey, Entry> entries_;
};

/// Shorthand for DriftMonitor::global().
DriftMonitor& drift();

}  // namespace isoee::obs
