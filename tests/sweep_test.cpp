// Tests for the SWEEP wavefront-pipeline kernel: dependence-order
// correctness (p-invariant checksum), pipeline timing structure, and
// model-validation behaviour under inherent imbalance — plus the SWEEP and
// CKPT checksums pinned to the stream the kernels draw.
#include <gtest/gtest.h>

#include <utility>

#include "analysis/study.hpp"
#include "npb/ckpt.hpp"
#include "npb/classes.hpp"
#include "npb/sweep.hpp"
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

double checksum_at(const npb::SweepConfig& cfg, int p) {
  Engine eng(machine());
  double out = 0.0;
  eng.run(p, [&](RankCtx& ctx) {
    auto res = npb::sweep_rank(ctx, cfg);
    if (ctx.rank() == 0) out = res.checksum;
  });
  return out;
}

TEST(Sweep, ChecksumInvariantAcrossRanks) {
  npb::SweepConfig cfg;
  cfg.nx = cfg.ny = 128;
  cfg.tile_w = 32;
  cfg.sweeps = 3;
  const double base = checksum_at(cfg, 1);
  EXPECT_NE(base, 0.0);
  for (int p : {2, 3, 4, 8, 16}) {
    EXPECT_NEAR(checksum_at(cfg, p), base, 1e-9 * std::abs(base)) << "p=" << p;
  }
}

TEST(Sweep, ChecksumIsBitIdenticalToSteppedStream) {
  // Recorded, as a hex float, from the build that drew the source term with
  // next(). At p = 3 the rank slices start at rows 42 and 85, so the stream
  // is sliced at cells 5376 and 10880.
  npb::SweepConfig cfg;
  cfg.nx = cfg.ny = 128;
  cfg.tile_w = 32;
  cfg.sweeps = 3;
  for (int p : {1, 3}) EXPECT_EQ(checksum_at(cfg, p), 0x1.efdad00a9a7cp+5) << "p=" << p;
}

TEST(Ckpt, ChecksumIsBitIdenticalToSteppedStream) {
  // Recorded, as hex floats, from the build that drew the state with next().
  // At p = 3 the slices start at elements 21845 and 43690.
  npb::CkptConfig cfg;
  cfg.elements = 1 << 16;
  cfg.iterations = 8;
  cfg.ckpt_every = 4;
  const std::pair<int, double> recorded[] = {{1, 0x1.e4cb7dbe0a14bp+13},
                                             {3, 0x1.e4cb7dbe0a0fcp+13}};
  for (const auto& [p, checksum] : recorded) {
    Engine eng(machine());
    double got = 0.0;
    eng.run(p, [&](RankCtx& ctx) {
      auto res = npb::ckpt_rank(ctx, cfg);
      if (ctx.rank() == 0) got = res.checksum;
    });
    EXPECT_EQ(got, checksum) << "p=" << p;
  }
}

TEST(Sweep, ChecksumInvariantAcrossTileWidths) {
  npb::SweepConfig cfg;
  cfg.nx = cfg.ny = 128;
  cfg.sweeps = 2;
  cfg.tile_w = 128;
  const double base = checksum_at(cfg, 4);
  for (int tile : {16, 32, 64}) {
    cfg.tile_w = tile;
    EXPECT_NEAR(checksum_at(cfg, 4), base, 1e-9 * std::abs(base)) << "tile=" << tile;
  }
}

TEST(Sweep, RejectsBadConfig) {
  Engine eng(machine());
  npb::SweepConfig bad;
  bad.nx = 100;
  bad.tile_w = 64;  // nx not a multiple of tile_w
  EXPECT_THROW(eng.run(1, [&](RankCtx& ctx) { (void)npb::sweep_rank(ctx, bad); }),
               std::invalid_argument);
  npb::SweepConfig tiny;
  tiny.ny = 4;
  tiny.nx = tiny.tile_w = 64;
  EXPECT_THROW(eng.run(8, [&](RankCtx& ctx) { (void)npb::sweep_rank(ctx, tiny); }),
               std::invalid_argument);
}

TEST(Sweep, PipelineFillStretchesMakespan) {
  // With ntiles = 4 and p = 4, the pipeline has 3 fill stages on top of 4
  // work stages: makespan ~ (ntiles + p - 1)/ntiles = 1.75x the balanced
  // time. (Per-rank wait times equalise through the final allreduce, so the
  // makespan ratio is the observable.)
  npb::SweepConfig cfg;
  cfg.nx = cfg.ny = 256;
  cfg.tile_w = 64;
  cfg.sweeps = 1;
  Engine eng(machine());
  auto res = eng.run(4, [&](RankCtx& ctx) { (void)npb::sweep_rank(ctx, cfg); });
  const double balanced = (res.time.compute_issued + res.time.memory_issued) / 4.0;
  EXPECT_GT(res.makespan, 1.3 * balanced);
  EXPECT_LT(res.makespan, 2.5 * balanced);
}

TEST(Sweep, SmallerTilesShortenPipeline) {
  // Finer tiles reduce fill bubbles: makespan should not increase when the
  // tile width shrinks (until startup costs dominate).
  npb::SweepConfig cfg;
  cfg.nx = cfg.ny = 512;
  cfg.sweeps = 2;
  auto time_at = [&](int tile) {
    cfg.tile_w = tile;
    Engine eng(machine());
    return eng.run(8, [&](RankCtx& ctx) { (void)npb::sweep_rank(ctx, cfg); }).makespan;
  };
  EXPECT_LT(time_at(64), time_at(512));
}

TEST(Sweep, MessageCountStructure) {
  npb::SweepConfig cfg;
  cfg.nx = cfg.ny = 128;
  cfg.tile_w = 32;
  cfg.sweeps = 3;
  const int p = 4;
  Engine eng(machine());
  auto res = eng.run(p, [&](RankCtx& ctx) { (void)npb::sweep_rank(ctx, cfg); });
  // (p-1) senders * ntiles messages * sweeps, plus the checksum allreduce.
  const double pipeline_msgs = (p - 1.0) * (128 / 32) * 3;
  const auto allreduce = model::allreduce_volume(p, 8.0);
  EXPECT_EQ(static_cast<double>(res.counters.messages_sent),
            pipeline_msgs + allreduce.messages);
}

TEST(SweepStudy, ValidatesDespiteImbalance) {
  auto spec = machine();
  spec.noise.enabled = true;
  analysis::EnergyStudy study(spec,
                              analysis::make_adapter(npb::sweep_class(npb::ProblemClass::S)));
  const double ns[] = {128. * 128, 256. * 256, 512. * 512};
  const int ps[] = {2, 4, 8};
  study.calibrate(ns, ps);
  for (int p : {1, 4, 16}) {
    const auto v = study.validate(512. * 512, p);
    // Pipeline bubbles are carried by the structural T_idle term; residual
    // error stays near the collective-based codes' band.
    EXPECT_LT(v.error_pct, 10.0) << "p=" << p;
  }
}

TEST(SweepWorkload, ModelShapes) {
  model::SweepWorkload w;
  w.wc_n = 5;
  w.sec_per_cell = 1e-9;
  w.msgs_pm1 = 12;
  w.bytes_pm1n = 8;
  w.tile_w = 64;
  const auto a2 = w.at(1 << 16, 2);
  const auto a5 = w.at(1 << 16, 5);
  EXPECT_DOUBLE_EQ(a5.M / a2.M, 4.0);  // messages ~ (p-1)
  EXPECT_DOUBLE_EQ(a5.T_idle / a2.T_idle, 4.0);  // bubbles ~ (p-1)
  EXPECT_EQ(w.at(1 << 16, 1).M, 0.0);
  EXPECT_EQ(w.at(1 << 16, 1).T_idle, 0.0);
  const auto big = w.at(4 << 16, 2);   // 4x cells -> 2x rows
  EXPECT_NEAR(big.B / a2.B, 2.0, 1e-9);
}

}  // namespace
