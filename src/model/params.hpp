// Parameter vectors of the iso-energy-efficiency model (paper Tables 1 & 2).
//
// The model splits every input into a machine-dependent vector
//   M(f, BW) = (t_c, t_m, t_s, t_w, P_idle-system, dP_c, dP_m, dP_io, gamma)
// and an application-dependent vector
//   A(n, p)  = (alpha, W_c, W_m, dW_oc, dW_om, M, B)
// This header defines both as plain value types; everything else in the model
// is arithmetic on them.
#pragma once

#include <cmath>
#include <string>

namespace isoee::model {

/// Machine-dependent parameters (paper Table 1). All powers are per processor
/// (per core slot); frequency is carried so t_c and dP_c can be re-derived at
/// any DVFS gear via `at_frequency`.
struct MachineParams {
  std::string name = "machine";

  // Time-related.
  double cpi = 1.0;       // average cycles per on-chip instruction
  double f_ghz = 1.0;     // current CPU frequency
  double base_ghz = 1.0;  // frequency at which dp_c_base is quoted
  double t_m = 100e-9;    // average off-chip memory access latency (s)
  double t_s = 1e-6;      // message startup time (s)
  double t_w = 1e-9;      // transmission time per byte (s)

  // Power-related (watts, per processor).
  double p_sys_idle = 30.0;  // P_idle-system: full idle floor
  double dp_c_base = 8.0;    // DeltaP_c at base_ghz
  double dp_m = 5.0;         // DeltaP_m
  double dp_io = 0.0;        // DeltaP_io (paper Eq 12 drops it)
  double gamma = 2.0;        // power-frequency exponent (Eq 20, gamma >= 1)

  // Extension beyond the paper (default off): busy-poll CPU power during
  // communication, and the gear in effect during communication phases (for
  // modelling communication-phase DVFS controllers). f_comm_ghz = 0 means
  // communication runs at f_ghz.
  double poll_factor = 0.0;
  double f_comm_ghz = 0.0;

  /// The field list. Each parameter record (this one, each workload model,
  /// analysis's CounterSample and Measurement) names its members once, here
  /// by calling visit(key, member) for each in a fixed order: the order of
  /// its text section (model/serialize) and of its cache payload. Self is the
  /// record, const for readers, so every reader and writer walks one list.
  template <class Self, class Visit>
  static void fields(Self& m, Visit&& visit) {
    visit("name", m.name);
    visit("cpi", m.cpi);
    visit("f_ghz", m.f_ghz);
    visit("base_ghz", m.base_ghz);
    visit("t_m", m.t_m);
    visit("t_s", m.t_s);
    visit("t_w", m.t_w);
    visit("p_sys_idle", m.p_sys_idle);
    visit("dp_c_base", m.dp_c_base);
    visit("dp_m", m.dp_m);
    visit("dp_io", m.dp_io);
    visit("gamma", m.gamma);
    visit("poll_factor", m.poll_factor);
    visit("f_comm_ghz", m.f_comm_ghz);
  }

  /// CPU power increment while busy-polling the network.
  double dp_poll() const {
    if (poll_factor <= 0.0) return 0.0;
    const double f = f_comm_ghz > 0.0 ? f_comm_ghz : f_ghz;
    return poll_factor * dp_c_base * std::pow(f / base_ghz, gamma);
  }

  /// Average time per on-chip instruction: t_c = CPI / f (Table 1).
  double t_c() const { return cpi / (f_ghz * 1e9); }

  /// CPU power increment at the current frequency: dP_c(f) = dP_c(f0)(f/f0)^gamma.
  double dp_c() const { return dp_c_base * std::pow(f_ghz / base_ghz, gamma); }

  /// Copy of this vector re-evaluated at another frequency.
  MachineParams at_frequency(double ghz) const {
    MachineParams m = *this;
    m.f_ghz = ghz;
    return m;
  }
};

/// Application-dependent parameters (paper Table 2) for one (n, p) point.
/// Workload quantities are *totals across all p processors*; the sequential
/// workload (W_c, W_m) is what a single processor would execute, and the
/// dW_* terms are the extra work parallelisation adds system-wide.
struct AppParams {
  double alpha = 1.0;  // computational-overlap factor (Section VI.F), in (0, ~1]
  double W_c = 0.0;    // total on-chip computation workload (instructions)
  double W_m = 0.0;    // total off-chip memory accesses
  double dW_oc = 0.0;  // parallel computation overhead (instructions)
  double dW_om = 0.0;  // parallel memory-access overhead (accesses)
  double M = 0.0;      // total messages across ranks
  double B = 0.0;      // total bytes transmitted across ranks
  double T_io = 0.0;   // total I/O time (s); ~0 for the studied benchmarks
  double T_idle = 0.0; // structural load-imbalance idle time (s) across ranks:
                       // pipeline fill/drain bubbles and similar. Burns the
                       // idle floor and stretches Tp but adds no activity
                       // deltas. Extension beyond the paper (the studied NAS
                       // codes are balanced; SWEEP is not).

  int p = 1;           // processors this vector was evaluated for
  double n = 0.0;      // problem size this vector was evaluated for
};

}  // namespace isoee::model
