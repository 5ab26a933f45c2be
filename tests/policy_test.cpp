// Tests for the policy module (power caps, deadlines)
// and the communication-phase DVFS machinery (GearScope, comm_gear_ghz,
// busy-poll power accounting in simulator, profiler, and model).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/policy.hpp"
#include "benchtools/calibrate.hpp"
#include "model/workloads.hpp"
#include "powerpack/profiler.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace {

using namespace isoee;

model::MachineParams machine_params() { return tools::nominal_machine_params(sim::system_g()); }

// --- policy ------------------------------------------------------------------

TEST(Policy, EnumerateCoversGrid) {
  model::FtWorkload ft;
  const int ps[] = {1, 4, 16};
  const double gears[] = {2.8, 1.6};
  const auto configs = analysis::enumerate_configs(machine_params(), ft, 1e6, ps, gears);
  EXPECT_EQ(configs.size(), 6u);
  for (const auto& c : configs) {
    EXPECT_GT(c.time_s, 0.0);
    EXPECT_GT(c.energy_j, 0.0);
    EXPECT_GT(c.avg_power_w, 0.0);
    EXPECT_NEAR(c.avg_power_w, c.energy_j / c.time_s, 1e-9);
  }
}

TEST(Policy, PowerCapBindsAndPicksFastest) {
  model::EpWorkload ep;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64};
  const double gears[] = {2.8, 2.4, 2.0, 1.6};
  const auto m = machine_params();

  // A generous cap admits the largest p (fastest).
  const auto loose = analysis::best_under_power_cap(m, ep, 1 << 22, ps, gears, 1e9);
  ASSERT_TRUE(loose.feasible);
  EXPECT_EQ(loose.p, 64);

  // A tight cap forces fewer processors.
  const auto tight = analysis::best_under_power_cap(m, ep, 1 << 22, ps, gears, 300.0);
  ASSERT_TRUE(tight.feasible);
  EXPECT_LT(tight.p, 64);
  EXPECT_LE(tight.avg_power_w, 300.0);

  // An impossible cap is reported as infeasible.
  const auto none = analysis::best_under_power_cap(m, ep, 1 << 22, ps, gears, 1.0);
  EXPECT_FALSE(none.feasible);
}

TEST(Policy, ImpossibleCapClampsToLowestGear) {
  // Regression for the clamp edge case: an unreachable cap must come back as
  // the lowest-power operating point (lowest gear, smallest p) with
  // feasible=false — not a 0-GHz sentinel, which gear-snapping downstream
  // (engine, runners) would promote to the machine's FASTEST gear.
  model::EpWorkload ep;
  const int ps[] = {1, 2, 4};
  const double gears[] = {2.8, 2.4, 2.0, 1.6};
  const auto m = machine_params();
  const auto none = analysis::best_under_power_cap(m, ep, 1 << 22, ps, gears, 1.0);
  EXPECT_FALSE(none.feasible);
  EXPECT_DOUBLE_EQ(none.f_ghz, 1.6);
  EXPECT_EQ(none.p, 1);
  EXPECT_GT(none.avg_power_w, 0.0);
  // Its model-predicted power really is the minimum over the whole grid.
  const auto grid = analysis::enumerate_configs(m, ep, 1 << 22, ps, gears);
  for (const auto& c : grid) {
    EXPECT_GE(c.avg_power_w, none.avg_power_w - 1e-9);
  }
}

TEST(Policy, CapMonotonicity) {
  // A looser cap can never yield a slower best choice.
  model::CgWorkload cg;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const double gears[] = {2.8, 2.4, 2.0, 1.6};
  const auto m = machine_params();
  double prev_time = 1e300;
  for (double cap : {200.0, 500.0, 1000.0, 3000.0, 10000.0}) {
    const auto best = analysis::best_under_power_cap(m, cg, 75000, ps, gears, cap);
    if (!best.feasible) continue;
    EXPECT_LE(best.time_s, prev_time) << "cap=" << cap;
    prev_time = best.time_s;
  }
}

TEST(Policy, DeadlinePolicy) {
  model::FtWorkload ft;
  const int ps[] = {1, 2, 4, 8, 16, 32, 64};
  const double gears[] = {2.8, 2.4, 2.0, 1.6};
  const auto m = machine_params();
  model::IsoEnergyModel base(m.at_frequency(2.8));
  const double t1 = base.predict_performance(ft.at(1e6, 1)).T1;

  // Loose deadline: sequential (or small p) is the cheapest.
  const auto eco = analysis::best_energy_under_deadline(m, ft, 1e6, ps, gears, 10 * t1);
  ASSERT_TRUE(eco.feasible);
  EXPECT_LE(eco.p, 2);

  // Tight deadline forces parallelism (more energy).
  const auto fast = analysis::best_energy_under_deadline(m, ft, 1e6, ps, gears, t1 / 8.0);
  ASSERT_TRUE(fast.feasible);
  EXPECT_GE(fast.p, 8);
  EXPECT_GE(fast.energy_j, eco.energy_j);

  // Nothing meets the deadline: the fastest configuration, marked infeasible.
  const auto impossible =
      analysis::best_energy_under_deadline(m, ft, 1e6, ps, gears, t1 / 1e6);
  EXPECT_FALSE(impossible.feasible);
  double fastest = std::numeric_limits<double>::infinity();
  for (const auto& c : analysis::enumerate_configs(m, ft, 1e6, ps, gears)) {
    fastest = std::min(fastest, c.time_s);
  }
  EXPECT_EQ(impossible.time_s, fastest);
  EXPECT_TRUE(std::isfinite(impossible.energy_j));
}

// --- busy-poll power & comm-phase DVFS ---------------------------------------------

TEST(PollPower, NetworkWaitBurnsConfiguredFraction) {
  auto spec = sim::system_g();
  spec.power.net_poll_cpu_factor = 0.5;
  sim::Engine eng(spec);
  auto res = eng.run(2, [](sim::RankCtx& ctx) {
    std::vector<double> buf(1 << 20);  // 8 MB: ~1.6 ms on the 5 GB/s link
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::span<const double>(buf));
    } else {
      ctx.recv(0, 0, std::span<double>(buf));
    }
  });
  const auto& r1 = res.ranks[1];
  // Energy must include poll power over the receive wait.
  const double expected = r1.time.total * spec.power.system_idle_w() +
                          0.5 * r1.time.network * spec.power.cpu_delta_w;
  EXPECT_NEAR(r1.energy.total, expected, 1e-9);
}

TEST(PollPower, DefaultIsZero) {
  const auto spec = sim::system_g();
  EXPECT_DOUBLE_EQ(spec.power.net_poll_cpu_factor, 0.0);
  // Eq 12 behaviour: network waits burn idle power only.
  sim::Engine eng(spec);
  auto res = eng.run(2, [](sim::RankCtx& ctx) {
    std::vector<double> buf(1 << 18);
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::span<const double>(buf));
    } else {
      ctx.recv(0, 0, std::span<double>(buf));
    }
  });
  EXPECT_NEAR(res.ranks[1].energy.total,
              res.ranks[1].time.total * spec.power.system_idle_w(), 1e-9);
}

TEST(CommDvfs, GearScopeRestoresFrequency) {
  sim::Engine eng(sim::system_g());
  eng.run(1, [](sim::RankCtx& ctx) {
    EXPECT_DOUBLE_EQ(ctx.frequency(), 2.8);
    {
      smpi::GearScope gear(ctx, 1.6);
      EXPECT_DOUBLE_EQ(ctx.frequency(), 1.6);
      {
        smpi::GearScope inner(ctx, 0.0);  // 0 = no change
        EXPECT_DOUBLE_EQ(ctx.frequency(), 1.6);
      }
    }
    EXPECT_DOUBLE_EQ(ctx.frequency(), 2.8);
  });
}

TEST(CommDvfs, CollectivesRunAtCommGear) {
  auto spec = sim::system_g();
  spec.power.net_poll_cpu_factor = 1.0;
  auto energy_at_gear = [&](double gear) {
    sim::Engine eng(spec);
    auto res = eng.run(4, [gear](sim::RankCtx& ctx) {
      smpi::CollectiveConfig cfg;
      cfg.comm_gear_ghz = gear;
      smpi::Comm comm(ctx, cfg);
      std::vector<double> in(1 << 16, 1.0), out(in.size() * 4);
      comm.allgather(std::span<const double>(in), std::span<double>(out));
      EXPECT_DOUBLE_EQ(ctx.frequency(), 2.8);  // restored after the collective
    });
    return res.energy.total;
  };
  // With full poll power, a lower comm gear must save energy at (nearly)
  // unchanged time.
  EXPECT_LT(energy_at_gear(1.6), energy_at_gear(0.0));
}

TEST(CommDvfs, NetworkTimeUnaffectedByGear) {
  auto spec = sim::system_g();
  auto time_at_gear = [&](double gear) {
    sim::Engine eng(spec);
    auto res = eng.run(4, [gear](sim::RankCtx& ctx) {
      smpi::CollectiveConfig cfg;
      cfg.comm_gear_ghz = gear;
      smpi::Comm comm(ctx, cfg);
      std::vector<double> in(1 << 14, 1.0), out(in.size() * 4);
      comm.allgather(std::span<const double>(in), std::span<double>(out));
    });
    return res.makespan;
  };
  // Pure communication: the gear has no effect on time at all (combine-free
  // collective), modulo the reduce-combine compute in allreduce variants.
  EXPECT_NEAR(time_at_gear(1.6), time_at_gear(0.0), 1e-12);
}

TEST(PollPowerModel, PredictsPollEnergy) {
  auto params = machine_params();
  model::AppParams app;
  app.alpha = 1.0;
  app.W_c = 1e9;
  app.W_m = 0;
  app.M = 1000;
  app.B = 1e9;
  app.p = 4;

  model::IsoEnergyModel no_poll(params);
  auto params_poll = params;
  params_poll.poll_factor = 0.5;
  model::IsoEnergyModel with_poll(params_poll);
  const double t_net = no_poll.network_time(app);
  EXPECT_NEAR(with_poll.predict_energy(app).Ep - no_poll.predict_energy(app).Ep,
              0.5 * t_net * params.dp_c_base, 1e-9);

  // At a lower comm gear the poll increment shrinks by (f/f0)^gamma.
  auto params_gear = params_poll;
  params_gear.f_comm_ghz = 1.4;
  model::IsoEnergyModel geared(params_gear);
  const double scale = std::pow(1.4 / 2.8, params.gamma);
  EXPECT_NEAR(geared.predict_energy(app).Ep - no_poll.predict_energy(app).Ep,
              0.5 * scale * t_net * params.dp_c_base, 1e-9);
}

TEST(PollPowerProfiler, SamplesPollDraw) {
  auto spec = sim::system_g();
  spec.power.net_poll_cpu_factor = 0.6;
  sim::EngineOptions opts;
  opts.record_trace = true;
  sim::Engine eng(spec, opts);
  auto res = eng.run(2, [](sim::RankCtx& ctx) {
    std::vector<double> buf(1 << 20);
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::span<const double>(buf));
    } else {
      ctx.recv(0, 0, std::span<double>(buf));
    }
  });
  powerpack::Profiler prof(spec);
  // Sample rank 1 in the middle of its receive wait.
  const auto sample = prof.power_at(res.traces[1], res.makespan * 0.5);
  EXPECT_NEAR(sample.cpu_w, spec.power.cpu_idle_w + 0.6 * spec.power.cpu_delta_w, 1e-9);
}

}  // namespace
