// Tests for the runtime governor: sliding-window power estimation on virtual
// time, the shared gear-selection helper, the hysteresis cap policy's control
// law (no oscillation under steady load), and the closed loop end to end —
// a governed FT run must be deterministic across reruns, hold a tight power
// cap better than the open-loop baseline, and still verify its checksums.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <vector>

#include "governor/gearsel.hpp"
#include "governor/governor.hpp"
#include "governor/policies.hpp"
#include "governor/window.hpp"
#include "npb/ft.hpp"
#include "powerpack/phases.hpp"
#include "powerpack/profiler.hpp"
#include "sim/engine.hpp"

namespace {

using namespace isoee;

// --- PowerWindow -------------------------------------------------------------

TEST(PowerWindow, EmptyReportsFloor) {
  governor::PowerWindow w(0.005, 42.0);
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.average_w(), 42.0);
  EXPECT_DOUBLE_EQ(w.average_w(1.0), 42.0);
}

TEST(PowerWindow, SingleSpanAverageIsItsPower) {
  governor::PowerWindow w(0.005, 0.0);
  w.push(0.0, 0.001, 100.0);
  EXPECT_FALSE(w.empty());
  EXPECT_DOUBLE_EQ(w.now(), 0.001);
  EXPECT_DOUBLE_EQ(w.average_w(), 100.0);
}

TEST(PowerWindow, TimeWeightedMixOfSpans) {
  governor::PowerWindow w(0.010, 0.0);
  w.push(0.0, 0.002, 100.0);  // 0.2 J
  w.push(0.002, 0.001, 40.0); // 0.04 J
  // Average over [first, now] = [0, 0.003]: 0.24 J / 0.003 s = 80 W.
  EXPECT_NEAR(w.average_w(), 80.0, 1e-12);
}

TEST(PowerWindow, EvictsSpansPastTheTrailingEdge) {
  governor::PowerWindow w(0.002, 0.0);
  w.push(0.0, 0.001, 500.0);   // will fall out of the window
  w.push(0.005, 0.001, 100.0); // now = 0.006, edge = 0.004: first span evicted
  EXPECT_EQ(w.spans(), 1u);
  // Window [0.004, 0.006]: 1 ms at 100 W + 1 ms gap at floor 0 = 50 W.
  EXPECT_NEAR(w.average_w(), 50.0, 1e-12);
}

TEST(PowerWindow, VirtualTimeGapsChargeTheFloor) {
  governor::PowerWindow w(0.010, 10.0);
  w.push(0.0, 0.002, 100.0);
  w.push(0.006, 0.002, 100.0);  // 4 ms hole between the spans
  // [0, 0.008]: 4 ms at 100 W + 4 ms at the 10 W floor = 55 W.
  EXPECT_NEAR(w.average_w(), 55.0, 1e-12);
}

TEST(PowerWindow, ColdWindowClampsToFirstObservation) {
  // A 100 ms window queried 1 ms into the run must not dilute the observed
  // power with 99 ms of imaginary pre-run floor.
  governor::PowerWindow w(0.100, 1.0);
  w.push(0.0, 0.001, 200.0);
  EXPECT_DOUBLE_EQ(w.average_w(0.001), 200.0);
  // Querying before/at the first observation falls back to the floor.
  EXPECT_DOUBLE_EQ(w.average_w(0.0), 1.0);
}

// --- fastest_gear_under_cap ----------------------------------------------------

TEST(GearSelect, PicksFastestGearUnderTheCap) {
  const std::vector<double> gears = {2.8, 2.4, 2.0, 1.6};
  auto power_at = [](double f) { return 100.0 * f * f; };  // monotone in f
  const auto d = governor::fastest_gear_under_cap(gears, power_at, 500.0);
  EXPECT_TRUE(d.feasible);
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.0);  // 2.4^2*100 = 576 > 500, 2.0^2*100 = 400
  EXPECT_DOUBLE_EQ(d.predicted_w, 400.0);
}

TEST(GearSelect, TopGearFeasibleWhenCapIsLoose) {
  const std::vector<double> gears = {2.8, 2.4};
  auto power_at = [](double f) { return 10.0 * f; };
  const auto d = governor::fastest_gear_under_cap(gears, power_at, 1000.0);
  EXPECT_TRUE(d.feasible);
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.8);
}

TEST(GearSelect, ClampsToLowestGearWhenNothingFits) {
  // The edge case the analysis policy used to get wrong: an unreachable cap
  // must clamp to the LOWEST gear with feasible=false, never return a 0-GHz
  // sentinel (which downstream gear-snapping would promote to the fastest
  // gear — the exact opposite of what a power cap wants).
  const std::vector<double> gears = {2.8, 2.4, 2.0, 1.6};
  auto power_at = [](double f) { return 100.0 * f * f; };
  const auto d = governor::fastest_gear_under_cap(gears, power_at, 50.0);
  EXPECT_FALSE(d.feasible);
  EXPECT_DOUBLE_EQ(d.f_ghz, 1.6);
  EXPECT_GT(d.f_ghz, 0.0);
  EXPECT_DOUBLE_EQ(d.predicted_w, 100.0 * 1.6 * 1.6);
}

// --- classify_phase ------------------------------------------------------------

TEST(ClassifyPhase, CollectiveTokensAreCommunication) {
  using governor::PhaseKind;
  EXPECT_EQ(governor::classify_phase("ft.transpose"), PhaseKind::kCommunication);
  EXPECT_EQ(governor::classify_phase("cg.allreduce"), PhaseKind::kCommunication);
  EXPECT_EQ(governor::classify_phase("cg.allgather"), PhaseKind::kCommunication);
  EXPECT_EQ(governor::classify_phase("halo.exchange"), PhaseKind::kCommunication);
  EXPECT_EQ(governor::classify_phase("cg.makea"), PhaseKind::kCompute);
  EXPECT_EQ(governor::classify_phase("ft.evolve"), PhaseKind::kCompute);
  EXPECT_EQ(governor::classify_phase(""), PhaseKind::kCompute);
}

// --- CapPolicy control law -----------------------------------------------------

governor::Observation steady_obs(double t, double ghz, double cluster_w,
                                 double cpu_delta_w) {
  governor::Observation o;
  o.t = t;
  o.nranks = 16;
  o.current_ghz = ghz;
  o.cluster_w = cluster_w;
  o.cluster_cpu_delta_w = cpu_delta_w;
  o.rank_w = cluster_w / 16.0;
  o.rank_cpu_delta_w = cpu_delta_w / 16.0;
  return o;
}

TEST(CapPolicy, StepsDownOnViolationAfterDwell) {
  governor::CapPolicyConfig cfg;
  cfg.gears_ghz = {2.8, 2.4, 2.0, 1.6};
  cfg.cap_w = 500.0;
  cfg.min_dwell_s = 0.002;
  auto policy = governor::make_cap_policy(cfg)();
  // First violation steps down immediately (last change is at -inf).
  auto d = policy->decide(steady_obs(0.0, 2.8, 600.0, 200.0));
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.4);
  EXPECT_STREQ(d.reason, "cap-down");
  // Still violating 1 ms later: inside the dwell, must hold.
  d = policy->decide(steady_obs(0.001, 2.4, 560.0, 150.0));
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.4);
  EXPECT_STREQ(d.reason, "hold");
  // Past the dwell: steps again.
  d = policy->decide(steady_obs(0.003, 2.4, 560.0, 150.0));
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.0);
  EXPECT_STREQ(d.reason, "cap-down");
}

TEST(CapPolicy, ClampsAtLowestGear) {
  governor::CapPolicyConfig cfg;
  cfg.gears_ghz = {2.8, 2.4};
  cfg.cap_w = 100.0;
  cfg.min_dwell_s = 0.0;
  auto policy = governor::make_cap_policy(cfg)();
  (void)policy->decide(steady_obs(0.0, 2.8, 600.0, 200.0));
  auto d = policy->decide(steady_obs(0.001, 2.4, 500.0, 150.0));
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.4);
  EXPECT_STREQ(d.reason, "cap-clamped");
}

TEST(CapPolicy, NoOscillationUnderSteadyLoad) {
  // Steady load just over the cap at the top gear, just under one gear down.
  // The model-form up-prediction must recognise that stepping back up would
  // re-violate, so after the single initial step the gear never changes.
  governor::CapPolicyConfig cfg;
  cfg.gears_ghz = {2.8, 2.4, 2.0, 1.6};
  cfg.cap_w = 500.0;
  cfg.gamma = 2.0;
  cfg.release_band = 0.08;
  cfg.min_dwell_s = 0.002;
  cfg.up_dwell_s = 0.004;
  auto policy = governor::make_cap_policy(cfg)();

  double ghz = 2.8;
  int changes = 0;
  const double cpu_delta_at_top = 180.0;
  const double static_w = 520.0 - cpu_delta_at_top;  // 520 W total at 2.8 GHz
  for (int i = 0; i < 500; ++i) {
    const double t = 0.001 * i;
    // Steady physical load: the frequency-sensitive share follows (f/f0)^2.
    const double delta = cpu_delta_at_top * (ghz / 2.8) * (ghz / 2.8);
    const auto d = policy->decide(steady_obs(t, ghz, static_w + delta, delta));
    if (d.f_ghz != ghz) {
      ++changes;
      ghz = d.f_ghz;
    }
  }
  EXPECT_EQ(changes, 1) << "hysteresis must settle, not oscillate";
  EXPECT_DOUBLE_EQ(ghz, 2.4);  // 340 + 180*(2.4/2.8)^2 = 472 W < 500 W cap
}

TEST(CapPolicy, StepsBackUpWhenHeadroomIsReal) {
  // Load drops far below the cap: the predicted up-power clears the release
  // threshold and the policy recovers the faster gear.
  governor::CapPolicyConfig cfg;
  cfg.gears_ghz = {2.8, 2.4};
  cfg.cap_w = 500.0;
  cfg.gamma = 2.0;
  cfg.release_band = 0.08;
  cfg.min_dwell_s = 0.0;
  cfg.up_dwell_s = 0.0;
  auto policy = governor::make_cap_policy(cfg)();
  (void)policy->decide(steady_obs(0.0, 2.8, 600.0, 200.0));  // down to 2.4
  auto d = policy->decide(steady_obs(0.001, 2.4, 300.0, 50.0));
  // Predicted up: 300 + 50 * ((2.8/2.4)^2 - 1) = 318 W < 460 W release.
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.8);
  EXPECT_STREQ(d.reason, "cap-up");
}

TEST(CapPolicy, CommPhaseGearsDownAndRestores) {
  governor::CapPolicyConfig cfg;
  cfg.gears_ghz = {2.8, 2.4, 2.0, 1.6};
  cfg.cap_w = 1000.0;  // never violated; isolates the phase behaviour
  auto policy = governor::make_cap_policy(cfg)();

  auto obs = steady_obs(0.0, 2.8, 400.0, 100.0);
  obs.phase = governor::PhaseKind::kCommunication;
  auto d = policy->decide(obs);
  EXPECT_DOUBLE_EQ(d.f_ghz, 1.6);  // comm gear defaults to the lowest
  EXPECT_STREQ(d.reason, "comm-gear");

  auto back = steady_obs(0.001, 1.6, 250.0, 30.0);
  d = policy->decide(back);
  EXPECT_DOUBLE_EQ(d.f_ghz, 2.8);  // restores the saved compute gear
  EXPECT_STREQ(d.reason, "comm-restore");
}

// --- Closed loop on the engine -------------------------------------------------

sim::MachineSpec noisy_machine() {
  auto m = sim::system_g();
  m.noise.enabled = true;  // "real hardware": the governor sees noisy power
  m.power.net_poll_cpu_factor = 1.0;
  return m;
}

struct GovernedFtRun {
  sim::RunResult result;
  std::vector<std::complex<double>> checksums;
  std::vector<governor::DecisionRecord> decisions;
  std::uint64_t actuations = 0;
};

GovernedFtRun run_ft_governed(const sim::MachineSpec& machine, const npb::FtConfig& cfg,
                              int p, double cap_w) {
  // Control horizons sized for millisecond-scale simulated jobs (the real
  // defaults assume seconds-long runs).
  governor::GovernorSpec gspec;
  gspec.window_s = 0.0005;
  gspec.decision_interval_s = 0.0001;
  gspec.cap_w = cap_w;
  governor::CapPolicyConfig cap_cfg;
  cap_cfg.gears_ghz = machine.cpu.gears_ghz;
  cap_cfg.cap_w = cap_w;
  cap_cfg.gamma = machine.power.gamma;
  cap_cfg.min_dwell_s = 0.0002;
  cap_cfg.up_dwell_s = 0.0004;
  governor::Governor gov(machine, gspec, governor::make_cap_policy(cap_cfg));

  powerpack::PhaseLog phases;
  phases.set_observer(gov.phase_hook());
  gov.begin_job(p);

  sim::EngineOptions opts;
  opts.record_trace = true;
  opts.on_segment = gov.engine_hook();
  sim::Engine eng(machine, opts);

  GovernedFtRun out;
  out.result = eng.run(p, [&](sim::RankCtx& ctx) {
    auto res = npb::ft_rank(ctx, cfg, &phases);
    if (ctx.rank() == 0) out.checksums = res.checksums;
  });
  out.decisions = gov.trace().sorted();
  out.actuations = gov.actuations();
  phases.set_observer(nullptr);
  return out;
}

double violation_fraction(const powerpack::Profiler& profiler,
                          const std::vector<std::vector<sim::Segment>>& traces,
                          double cap_w) {
  powerpack::SampleOptions opts;
  opts.interval_s = 0.00002;
  const auto samples = profiler.sample_job(traces, opts);
  if (samples.empty()) return 0.0;
  std::size_t over = 0;
  for (const auto& s : samples) {
    if (s.total_w() > cap_w) ++over;
  }
  return static_cast<double>(over) / static_cast<double>(samples.size());
}

TEST(GovernorLoop, DeterministicAcrossReruns) {
  const auto machine = noisy_machine();
  const int p = 8;
  const double cap = machine.power.system_idle_w() * p * 1.05;
  npb::FtConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 16;
  cfg.iters = 3;

  const auto a = run_ft_governed(machine, cfg, p, cap);
  const auto b = run_ft_governed(machine, cfg, p, cap);

  EXPECT_DOUBLE_EQ(a.result.makespan, b.result.makespan);
  EXPECT_DOUBLE_EQ(a.result.total_energy_j(), b.result.total_energy_j());
  EXPECT_EQ(a.actuations, b.actuations);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.decisions[i].t, b.decisions[i].t) << "i=" << i;
    EXPECT_EQ(a.decisions[i].rank, b.decisions[i].rank) << "i=" << i;
    EXPECT_DOUBLE_EQ(a.decisions[i].gear_after, b.decisions[i].gear_after) << "i=" << i;
    EXPECT_EQ(a.decisions[i].reason, b.decisions[i].reason) << "i=" << i;
  }
}

TEST(GovernorLoop, FtUnderTightCapHoldsCapAndStillVerifies) {
  const auto machine = noisy_machine();
  const powerpack::Profiler profiler(machine);
  const int p = 8;
  npb::FtConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 32;  // big enough for the loop to settle
  cfg.iters = 6;

  // Open-loop reference at the top gear: checksums + the cap anchor.
  sim::EngineOptions ref_opts;
  ref_opts.record_trace = true;
  sim::Engine ref_eng(machine, ref_opts);
  std::vector<std::complex<double>> ref_checksums;
  const auto ref = ref_eng.run(p, [&](sim::RankCtx& ctx) {
    auto res = npb::ft_rank(ctx, cfg);
    if (ctx.rank() == 0) ref_checksums = res.checksums;
  });
  const double base_w = ref.total_energy_j() / ref.makespan;

  // Anchor the cap inside the band DVFS can actually reach: between the
  // average draw at the lowest gear and at the top gear.
  sim::EngineOptions low_opts;
  low_opts.record_trace = true;
  low_opts.initial_ghz = machine.cpu.gears_ghz.back();
  sim::Engine low_eng(machine, low_opts);
  const auto low = low_eng.run(p, [&](sim::RankCtx& ctx) { (void)npb::ft_rank(ctx, cfg); });
  const double low_w = low.total_energy_j() / low.makespan;
  ASSERT_LT(low_w, base_w);
  const double cap = low_w + 0.5 * (base_w - low_w);  // tight but reachable

  const auto gov = run_ft_governed(machine, cfg, p, cap);

  // The governor actually intervened...
  EXPECT_GT(gov.actuations, 0u);
  EXPECT_FALSE(gov.decisions.empty());

  // ...cut cap-violation time well below the open-loop run...
  const double ref_viol = violation_fraction(profiler, ref.traces, cap);
  const double gov_viol = violation_fraction(profiler, gov.result.traces, cap);
  EXPECT_GT(ref_viol, 0.2);  // the fixed run busts this cap substantially
  EXPECT_LT(gov_viol, 0.25 * ref_viol);
  EXPECT_LT(gov_viol, 0.10);

  // ...at no extra energy (the busy-poll savings during geared-down
  // collectives pay for the slowdown's idle energy)...
  EXPECT_LE(gov.result.total_energy_j(), 1.005 * ref.total_energy_j());

  // ...without corrupting the numerics: checksums are bit-comparable because
  // DVFS changes time and power, never the computed values.
  ASSERT_EQ(gov.checksums.size(), ref_checksums.size());
  for (std::size_t i = 0; i < ref_checksums.size(); ++i) {
    EXPECT_DOUBLE_EQ(gov.checksums[i].real(), ref_checksums[i].real()) << "iter " << i;
    EXPECT_DOUBLE_EQ(gov.checksums[i].imag(), ref_checksums[i].imag()) << "iter " << i;
  }
}

/// Always keeps the current gear: the governor's plumbing with no control law.
class PassThroughPolicy final : public governor::Policy {
 public:
  const char* name() const override { return "pass-through"; }
  governor::Decision decide(const governor::Observation& obs) override {
    governor::Decision d;
    d.f_ghz = obs.current_ghz;
    d.reason = "pass-through";
    return d;
  }
};

TEST(GovernorLoop, NoopPolicyNeverActuates) {
  const auto machine = noisy_machine();
  governor::GovernorSpec gspec;
  governor::Governor gov(machine, gspec,
                         [] { return std::make_unique<PassThroughPolicy>(); });
  powerpack::PhaseLog phases;
  phases.set_observer(gov.phase_hook());
  gov.begin_job(4);

  sim::EngineOptions opts;
  opts.on_segment = gov.engine_hook();
  sim::Engine eng(machine, opts);
  npb::FtConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 16;
  cfg.iters = 2;
  const auto run = eng.run(4, [&](sim::RankCtx& ctx) {
    (void)npb::ft_rank(ctx, cfg, &phases);
  });
  EXPECT_EQ(gov.actuations(), 0u);
  EXPECT_EQ(run.counters.dvfs_transitions, 0u);
  phases.set_observer(nullptr);
}

}  // namespace
