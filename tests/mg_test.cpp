// Tests for the MG kernel and its workload model: convergence, p-invariance
// with a pinned hierarchy, halo-communication structure, and fit recovery.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/study.hpp"
#include "npb/classes.hpp"
#include "npb/mg.hpp"
#include "sim/engine.hpp"

namespace {

using namespace isoee;
using sim::Engine;
using sim::RankCtx;

sim::MachineSpec machine() {
  auto m = sim::system_g();
  m.noise.enabled = false;
  return m;
}

npb::MgResult run_mg_once(const npb::MgConfig& cfg, int p) {
  Engine eng(machine());
  npb::MgResult out;
  eng.run(p, [&](RankCtx& ctx) {
    auto res = npb::mg_rank(ctx, cfg);
    if (ctx.rank() == 0) out = res;
  });
  return out;
}

TEST(Mg, ResidualDecreasesMonotonically) {
  npb::MgConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 32;
  cfg.cycles = 4;
  const auto out = run_mg_once(cfg, 4);
  ASSERT_EQ(out.residual_norms.size(), 4u);
  double prev = out.initial_residual;
  for (double norm : out.residual_norms) {
    EXPECT_LT(norm, prev);
    prev = norm;
  }
  // Multigrid should knock the residual down by orders of magnitude.
  EXPECT_LT(out.residual_norms.back(), 0.01 * out.initial_residual);
}

TEST(Mg, InvariantAcrossRanksWithPinnedHierarchy) {
  npb::MgConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 64;
  cfg.cycles = 3;
  cfg.max_levels = 3;
  // nz = 64: every p <= 8 supports the pinned 3-level hierarchy
  // (slab 64/p -> /2 -> /2 stays >= 2 planes).
  const auto base = run_mg_once(cfg, 1);
  for (int p : {2, 4, 8}) {
    const auto got = run_mg_once(cfg, p);
    EXPECT_NEAR(got.initial_residual, base.initial_residual,
                1e-9 * base.initial_residual);
    ASSERT_EQ(got.residual_norms.size(), base.residual_norms.size());
    for (std::size_t i = 0; i < base.residual_norms.size(); ++i) {
      EXPECT_NEAR(got.residual_norms[i], base.residual_norms[i],
                  1e-6 * base.residual_norms[i])
          << "p=" << p << " cycle=" << i;
    }
  }
}

TEST(Mg, DeeperHierarchyConvergesFaster) {
  npb::MgConfig shallow;
  shallow.nx = shallow.ny = shallow.nz = 64;
  shallow.cycles = 2;
  shallow.max_levels = 1;  // plain damped Jacobi
  npb::MgConfig deep = shallow;
  deep.max_levels = 4;
  const auto s = run_mg_once(shallow, 2);
  const auto d = run_mg_once(deep, 2);
  EXPECT_LT(d.residual_norms.back(), s.residual_norms.back());
}

TEST(Mg, RejectsInvalidDecomposition) {
  npb::MgConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 16;
  Engine eng(machine());
  EXPECT_THROW(eng.run(16, [&](RankCtx& ctx) { (void)npb::mg_rank(ctx, cfg); }),
               std::invalid_argument);  // nz/p = 1 < 2
  npb::MgConfig bad;
  bad.nx = 48;  // not a power of two
  EXPECT_THROW(eng.run(1, [&](RankCtx& ctx) { (void)npb::mg_rank(ctx, bad); }),
               std::invalid_argument);
}

TEST(Mg, HaloTrafficScalesWithPlaneAreaAndRanks) {
  npb::MgConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 32;
  cfg.cycles = 2;
  cfg.max_levels = 2;
  auto bytes_at = [&](int p) {
    Engine eng(machine());
    auto res = eng.run(p, [&](RankCtx& ctx) { (void)npb::mg_rank(ctx, cfg); });
    return static_cast<double>(res.counters.bytes_sent);
  };
  const double b2 = bytes_at(2);
  const double b8 = bytes_at(8);
  // Every rank exchanges the same two planes per stencil op: bytes ~ p.
  EXPECT_NEAR(b8 / b2, 4.0, 0.2);
}

TEST(Mg, SequentialHasNoMessages) {
  npb::MgConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 16;
  cfg.cycles = 1;
  Engine eng(machine());
  auto res = eng.run(1, [&](RankCtx& ctx) { (void)npb::mg_rank(ctx, cfg); });
  EXPECT_EQ(res.counters.messages_sent, 0u);
}

TEST(MgStudy, FitsAndValidatesWithinBand) {
  auto spec = machine();
  spec.noise.enabled = true;
  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::mg_class(npb::ProblemClass::S)));
  const double ns[] = {32. * 32 * 32, 64. * 64 * 64};
  const int ps[] = {2, 4};
  study.calibrate(ns, ps);
  for (int p : {1, 4, 8}) {
    const auto v = study.validate(32. * 32 * 32, p);
    EXPECT_LT(v.error_pct, 12.0) << "p=" << p;
  }
}

TEST(MgWorkload, ModelShapes) {
  model::MgWorkload mg;
  mg.wc_n = 400;
  mg.wm_n = 9;
  mg.msgs_p = 200;
  mg.bytes_n23p = 500;
  const auto a4 = mg.at(64. * 64 * 64, 4);
  const auto a16 = mg.at(64. * 64 * 64, 16);
  EXPECT_DOUBLE_EQ(a16.M / a4.M, 4.0);       // messages ~ p
  EXPECT_DOUBLE_EQ(a16.B / a4.B, 4.0);       // bytes ~ p at fixed n
  const auto big = mg.at(8.0 * 64 * 64 * 64, 4);
  EXPECT_NEAR(big.B / a4.B, 4.0, 1e-9);      // bytes ~ n^(2/3): 8x n -> 4x B
  EXPECT_EQ(mg.at(1000, 1).M, 0.0);          // no comm sequentially
}

}  // namespace
