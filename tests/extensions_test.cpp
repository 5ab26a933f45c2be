// Tests for the two future-work extensions: the heterogeneous-cluster model
// (model/hetero.hpp, with DVFS-heterogeneous simulation support) and the I/O
// path (DiskSpec, CKPT application, CkptWorkload with fitted T_io terms).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/study.hpp"
#include "benchtools/calibrate.hpp"
#include "model/hetero.hpp"
#include "npb/ckpt.hpp"
#include "sim/engine.hpp"

namespace {

using namespace isoee;

model::MachineParams base_params() { return tools::nominal_machine_params(sim::system_g()); }

std::vector<model::ProcessorClass> two_classes(int fast_count, int slow_count) {
  std::vector<model::ProcessorClass> classes(2);
  classes[0].name = "fast";
  classes[0].machine = base_params();  // 2.8 GHz
  classes[0].count = fast_count;
  classes[1].name = "slow";
  classes[1].machine = base_params().at_frequency(1.6);
  classes[1].count = slow_count;
  return classes;
}

// --- heterogeneous model -------------------------------------------------------

TEST(Hetero, ReducesToHomogeneousWhenClassesEqual) {
  model::FtWorkload ft;
  const double n = 64.0 * 64 * 64;
  auto classes = two_classes(4, 4);
  classes[1].machine = classes[0].machine;  // identical classes

  const auto hetero = model::predict_hetero_balanced(classes, ft, n);
  model::IsoEnergyModel homo(classes[0].machine);
  const auto app = ft.at(n, 8);
  const auto perf = homo.predict_performance(app);
  const auto energy = homo.predict_energy(app);

  EXPECT_NEAR(hetero.Tp, perf.Tp, 1e-9 * perf.Tp);
  EXPECT_NEAR(hetero.Ep, energy.Ep, 1e-9 * energy.Ep);
  EXPECT_NEAR(hetero.shares[0], 0.5, 1e-12);
}

TEST(Hetero, BalancedSharesFavourFasterClass) {
  model::EpWorkload ep;
  const auto classes = two_classes(4, 4);
  const auto shares = model::balanced_shares(classes, ep, 1 << 20);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_GT(shares[0], shares[1]);  // fast class gets more work
  EXPECT_NEAR(shares[0] + shares[1], 1.0, 1e-12);
}

TEST(Hetero, BalancedSharesEqualiseClassTimes) {
  model::CgWorkload cg;
  const auto classes = two_classes(6, 2);
  const auto pred = model::predict_hetero_balanced(classes, cg, 20000);
  ASSERT_EQ(pred.class_times.size(), 2u);
  EXPECT_NEAR(pred.class_times[0], pred.class_times[1],
              1e-6 * pred.class_times[0]);
}

TEST(Hetero, ImbalancedSplitWastesEnergy) {
  model::EpWorkload ep;
  const auto classes = two_classes(4, 4);
  const auto balanced = model::predict_hetero_balanced(classes, ep, 1 << 22);
  const double skewed_shares[] = {0.1, 0.9};  // starve the fast class
  const auto skewed = model::predict_hetero(classes, ep, 1 << 22, skewed_shares);
  EXPECT_GT(skewed.Tp, balanced.Tp);
  EXPECT_GT(skewed.Ep, balanced.Ep);  // idle tails burn energy
}

TEST(Hetero, BestSplitNearBalancedForComputeBoundWork) {
  model::EpWorkload ep;
  const auto classes = two_classes(4, 4);
  const double best = model::best_split_for_energy(classes, ep, 1 << 22);
  const auto shares = model::balanced_shares(classes, ep, 1 << 22);
  EXPECT_NEAR(best, shares[0], 0.05);
}

TEST(Hetero, InputValidation) {
  model::EpWorkload ep;
  const auto classes = two_classes(2, 2);
  const double bad_shares[] = {1.0};
  EXPECT_THROW((void)model::predict_hetero(classes, ep, 1000, bad_shares),
               std::invalid_argument);
  const double shares[] = {0.5, 0.5};
  EXPECT_THROW((void)model::predict_hetero(classes, ep, 1000, shares, /*reference=*/5),
               std::invalid_argument);
}

// --- DVFS-heterogeneous simulation vs the hetero model ---------------------------

TEST(Hetero, SimulatorValidatesBalancedPrediction) {
  // 2 fast + 2 slow ranks run an EP-like compute workload split with the
  // model's balanced shares; measured energy/makespan must match the
  // heterogeneous prediction closely (compute-only => near-exact).
  auto spec = sim::system_g();
  spec.noise.enabled = false;

  // Workload: pure compute, W_c = 47 * n.
  model::EpWorkload ep;
  ep.alpha = 1.0;
  ep.wm_per_trial = 0.0;
  ep.dwoc_plogp = 0.0;
  const double n = 1 << 22;

  auto classes = two_classes(2, 2);
  for (auto& cls : classes) {
    cls.machine.dp_io = 0.0;
  }
  const auto shares = model::balanced_shares(classes, ep, n);
  const auto pred = model::predict_hetero(classes, ep, n, shares);

  sim::EngineOptions opts;
  opts.per_rank_ghz = {2.8, 2.8, 1.6, 1.6};
  sim::Engine eng(spec, opts);
  const double total_instr = ep.at(n, 4).W_c;
  auto res = eng.run(4, [&](sim::RankCtx& ctx) {
    const bool fast = ctx.rank() < 2;
    const double share = fast ? shares[0] / 2 : shares[1] / 2;
    ctx.compute(static_cast<std::uint64_t>(total_instr * share));
  });

  EXPECT_NEAR(res.makespan, pred.Tp, 0.01 * pred.Tp);
  // The EP allreduce is omitted in this micro-version; energies must agree
  // to within the comm-free approximation.
  EXPECT_NEAR(res.total_energy_j(), pred.Ep, 0.02 * pred.Ep);
}

TEST(Hetero, PerRankGearsSnapAndApply) {
  auto spec = sim::system_g();
  sim::EngineOptions opts;
  opts.per_rank_ghz = {2.8, 1.6};
  sim::Engine eng(spec, opts);
  auto res = eng.run(2, [](sim::RankCtx& ctx) {
    EXPECT_DOUBLE_EQ(ctx.frequency(), ctx.rank() == 0 ? 2.8 : 1.6);
    ctx.compute(1'000'000'000);
  });
  // Slow rank takes 1.75x as long for the same instructions.
  EXPECT_NEAR(res.ranks[1].time.compute_issued / res.ranks[0].time.compute_issued,
              2.8 / 1.6, 1e-9);
}

// --- disk & CKPT -----------------------------------------------------------------

TEST(Disk, AccessTimeFollowsSpec) {
  sim::DiskSpec disk;
  disk.bandwidth_Bps = 100e6;
  disk.latency_s = 5e-3;
  EXPECT_NEAR(disk.access_time(100'000'000), 5e-3 + 1.0, 1e-12);
  EXPECT_NEAR(disk.access_time(0), 5e-3, 1e-15);
}

TEST(Disk, WriteChargesIoTimeAndCounters) {
  auto spec = sim::system_g();
  spec.power.io_delta_w = 8.0;
  sim::Engine eng(spec);
  auto res = eng.run(1, [](sim::RankCtx& ctx) {
    ctx.disk_write(100'000'000);  // 1 s at 100 MB/s + 5 ms latency
  });
  EXPECT_NEAR(res.makespan, 1.005, 1e-9);
  EXPECT_EQ(res.counters.io_operations, 1u);
  EXPECT_EQ(res.counters.io_bytes, 100'000'000u);
  // Io delta applies over (network + io) time per the energy model.
  EXPECT_NEAR(res.energy.io,
              res.makespan * spec.power.io_idle_w + 1.005 * 8.0, 1e-6);
}

TEST(Ckpt, ChecksumInvariantAcrossRanks) {
  npb::CkptConfig cfg;
  cfg.elements = 1 << 16;
  cfg.iterations = 8;
  cfg.ckpt_every = 4;
  auto spec = sim::system_g();
  double base = 0.0;
  {
    sim::Engine eng(spec);
    eng.run(1, [&](sim::RankCtx& ctx) { base = npb::ckpt_rank(ctx, cfg).checksum; });
  }
  for (int p : {2, 3, 4, 8}) {
    sim::Engine eng(spec);
    double got = 0.0;
    eng.run(p, [&](sim::RankCtx& ctx) {
      auto res = npb::ckpt_rank(ctx, cfg);
      if (ctx.rank() == 0) got = res.checksum;
    });
    EXPECT_NEAR(got, base, 1e-9 * std::abs(base)) << "p=" << p;
  }
}

TEST(Ckpt, CheckpointCountAndVolume) {
  npb::CkptConfig cfg;
  cfg.elements = 1 << 14;
  cfg.iterations = 10;
  cfg.ckpt_every = 3;
  sim::Engine eng(sim::system_g());
  auto res = eng.run(2, [&](sim::RankCtx& ctx) {
    auto out = npb::ckpt_rank(ctx, cfg);
    EXPECT_EQ(out.checkpoints, 3u);  // iterations 3, 6, 9
    EXPECT_EQ(out.bytes_written, out.checkpoints * (cfg.elements / 2) * 8);
  });
  EXPECT_EQ(res.counters.io_operations, 6u);
}

TEST(CkptStudy, ModelPredictsIoHeavyRuns) {
  auto spec = sim::system_g();
  spec.noise.enabled = true;
  spec.power.io_delta_w = 8.0;  // disks draw power while active
  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::CkptConfig()));
  const double ns[] = {1 << 17, 1 << 18, 1 << 19};
  const int ps[] = {2, 4};
  study.calibrate(ns, ps);

  // dp_io is part of the machine vector; the nominal value flows through
  // calibrate_machine only for poll/io when measured — patch it in from the
  // spec as the study's measured calibration keeps Eq 12's dp_io = 0.
  for (int p : {1, 2, 4, 8}) {
    const auto v = study.validate(1 << 20, p);
    EXPECT_LT(v.error_pct, 10.0) << "p=" << p;
    // I/O time must be a visible part of the prediction.
    const auto app = study.workload().at(1 << 20, p);
    EXPECT_GT(app.T_io, 0.0);
  }
}

TEST(CkptWorkload, IoTermsScaleCorrectly) {
  model::CkptWorkload w;
  w.io_p = 0.01;
  w.io_n = 1e-7;
  const auto a4 = w.at(1e6, 4);
  const auto a8 = w.at(1e6, 8);
  EXPECT_NEAR(a8.T_io - a4.T_io, 0.04, 1e-12);  // latency term ~ p
  const auto big = w.at(2e6, 4);
  EXPECT_NEAR(big.T_io - a4.T_io, 0.1, 1e-12);  // bandwidth term ~ n
}

}  // namespace
