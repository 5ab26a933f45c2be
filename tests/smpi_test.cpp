// Tests for the message-passing layer: correctness of every collective over a
// sweep of rank counts (power-of-two and not), plus timing properties — in
// particular that pairwise-exchange all-to-all matches the Hockney closed form
// (p-1)(t_s + X t_w) the paper uses for FT.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace {

using namespace isoee;
using sim::Engine;
using sim::RankCtx;
using smpi::Comm;

sim::MachineSpec fast_machine() {
  sim::MachineSpec m;
  m.name = "fast";
  m.nodes = 32;
  m.sockets_per_node = 2;
  m.cores_per_socket = 4;
  m.cpu.cpi = 1.0;
  m.cpu.base_ghz = 2.0;
  m.cpu.gears_ghz = {2.0, 1.0};
  m.mem.caches = {sim::CacheLevel{32 * 1024, 1e-9}};
  m.mem.dram_latency_s = 100e-9;
  m.net.t_s = 1e-6;
  m.net.bandwidth_Bps = 1e9;
  m.power.gamma = 2.0;
  m.mem_overlap = 0.5;
  return m;
}

class CollectiveP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveP, BarrierCompletes) {
  const int p = GetParam();
  Engine eng(fast_machine());
  auto res = eng.run(p, [](RankCtx& ctx) {
    Comm comm(ctx);
    comm.barrier();
    comm.barrier();
  });
  if (p > 1) {
    EXPECT_GT(res.makespan, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(res.makespan, 0.0);  // single-rank barrier is a no-op
  }
}

TEST_P(CollectiveP, BcastDeliversFromEveryRoot) {
  const int p = GetParam();
  Engine eng(fast_machine());
  eng.run(p, [p](RankCtx& ctx) {
    Comm comm(ctx);
    for (int root = 0; root < p; ++root) {
      std::vector<int> buf(16, ctx.rank() == root ? 1234 + root : -1);
      comm.bcast(std::span<int>(buf), root);
      for (int v : buf) EXPECT_EQ(v, 1234 + root);
    }
  });
}

TEST_P(CollectiveP, ReduceSumsToRoot) {
  const int p = GetParam();
  Engine eng(fast_machine());
  eng.run(p, [p](RankCtx& ctx) {
    Comm comm(ctx);
    std::vector<long long> in(8), out(8, -1);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = ctx.rank() + static_cast<long long>(i);
    }
    comm.reduce_sum(std::span<const long long>(in), std::span<long long>(out), 0);
    if (ctx.rank() == 0) {
      const long long rank_sum = static_cast<long long>(p) * (p - 1) / 2;
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], rank_sum + static_cast<long long>(i) * p);
      }
    }
  });
}

TEST_P(CollectiveP, AllreduceMatchesReduceBcastAlgo) {
  const int p = GetParam();
  for (auto algo : {smpi::AllreduceAlgo::kRecursiveDoubling, smpi::AllreduceAlgo::kReduceBcast}) {
    Engine eng(fast_machine());
    eng.run(p, [p, algo](RankCtx& ctx) {
      smpi::CollectiveConfig cfg;
      cfg.allreduce = algo;
      Comm comm(ctx, cfg);
      std::vector<double> in(4, ctx.rank() + 1.0), out(4);
      comm.allreduce_sum(std::span<const double>(in), std::span<double>(out));
      const double expect = static_cast<double>(p) * (p + 1) / 2;
      for (double v : out) EXPECT_DOUBLE_EQ(v, expect);
    });
  }
}

TEST_P(CollectiveP, AllreduceMax) {
  const int p = GetParam();
  Engine eng(fast_machine());
  eng.run(p, [p](RankCtx& ctx) {
    Comm comm(ctx);
    double in = ctx.rank() * 1.5, out = -1;
    comm.allreduce(std::span<const double>(&in, 1), std::span<double>(&out, 1),
                   [](double& a, const double& b) { a = std::max(a, b); });
    EXPECT_DOUBLE_EQ(out, (p - 1) * 1.5);
  });
}

TEST_P(CollectiveP, ScalarAllreduceSum) {
  const int p = GetParam();
  Engine eng(fast_machine());
  eng.run(p, [p](RankCtx& ctx) {
    Comm comm(ctx);
    const double total = comm.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(total, static_cast<double>(p));
  });
}

TEST_P(CollectiveP, AllgatherCollectsInRankOrder) {
  const int p = GetParam();
  Engine eng(fast_machine());
  eng.run(p, [p](RankCtx& ctx) {
    Comm comm(ctx);
    std::vector<int> in(3, ctx.rank());
    std::vector<int> out(static_cast<std::size_t>(3 * p), -1);
    comm.allgather(std::span<const int>(in), std::span<int>(out));
    for (int r = 0; r < p; ++r) {
      for (int j = 0; j < 3; ++j) EXPECT_EQ(out[static_cast<std::size_t>(3 * r + j)], r);
    }
  });
}

TEST_P(CollectiveP, AlltoallPermutesBlocks) {
  const int p = GetParam();
  for (auto algo : {smpi::AlltoallAlgo::kPairwise, smpi::AlltoallAlgo::kRing,
                    smpi::AlltoallAlgo::kNaive, smpi::AlltoallAlgo::kBruck}) {
    Engine eng(fast_machine());
    eng.run(p, [p, algo](RankCtx& ctx) {
      smpi::CollectiveConfig cfg;
      cfg.alltoall = algo;
      Comm comm(ctx, cfg);
      const std::size_t block = 4;
      std::vector<int> in(block * static_cast<std::size_t>(p));
      std::vector<int> out(in.size(), -1);
      // in block d carries value rank*1000 + d.
      for (int d = 0; d < p; ++d) {
        for (std::size_t j = 0; j < block; ++j) {
          in[static_cast<std::size_t>(d) * block + j] = ctx.rank() * 1000 + d;
        }
      }
      comm.alltoall(std::span<const int>(in), std::span<int>(out), block);
      // out block s must carry s*1000 + rank.
      for (int s = 0; s < p; ++s) {
        for (std::size_t j = 0; j < block; ++j) {
          EXPECT_EQ(out[static_cast<std::size_t>(s) * block + j], s * 1000 + ctx.rank());
        }
      }
    });
  }
}

TEST_P(CollectiveP, AlltoallvWithUnevenCounts) {
  const int p = GetParam();
  Engine eng(fast_machine());
  eng.run(p, [p](RankCtx& ctx) {
    Comm comm(ctx);
    const int r = ctx.rank();
    // Rank r sends (r + d) % 3 elements to destination d, all valued r.
    std::vector<int> send_counts(static_cast<std::size_t>(p)), recv_counts(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send_counts[static_cast<std::size_t>(d)] = (r + d) % 3;
      recv_counts[static_cast<std::size_t>(d)] = (d + r) % 3;  // symmetric formula
    }
    std::size_t send_total = 0, recv_total = 0;
    for (int d = 0; d < p; ++d) {
      send_total += static_cast<std::size_t>(send_counts[static_cast<std::size_t>(d)]);
      recv_total += static_cast<std::size_t>(recv_counts[static_cast<std::size_t>(d)]);
    }
    std::vector<int> in(send_total, r), out(recv_total, -1);
    comm.alltoallv(std::span<const int>(in), std::span<const int>(send_counts),
                   std::span<int>(out), std::span<const int>(recv_counts));
    std::size_t off = 0;
    for (int s = 0; s < p; ++s) {
      for (int j = 0; j < recv_counts[static_cast<std::size_t>(s)]; ++j) {
        EXPECT_EQ(out[off++], s);
      }
    }
  });
}

TEST_P(CollectiveP, GatherToEveryRoot) {
  const int p = GetParam();
  Engine eng(fast_machine());
  eng.run(p, [p](RankCtx& ctx) {
    Comm comm(ctx);
    for (int root = 0; root < std::min(p, 3); ++root) {
      std::vector<int> in(2, ctx.rank() * 7);
      std::vector<int> out(static_cast<std::size_t>(2 * p), -1);
      comm.gather(std::span<const int>(in), std::span<int>(out), root);
      if (ctx.rank() == root) {
        for (int r = 0; r < p; ++r) {
          EXPECT_EQ(out[static_cast<std::size_t>(2 * r)], r * 7);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveP,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 64));

// --- timing properties ---------------------------------------------------------

TEST(CollectiveTiming, PairwiseAlltoallMatchesHockneyClosedForm) {
  // The paper models FT's MPI_Alltoall as (p-1)(t_s + X t_w) (pairwise
  // exchange / Hockney). Our pairwise algorithm over the simulated network
  // should reproduce that within a small tolerance.
  auto m = fast_machine();
  for (int p : {4, 8, 16, 32}) {
    Engine eng(m);
    const std::size_t block = 1 << 12;  // ints per destination
    auto res = eng.run(p, [block](RankCtx& ctx) {
      Comm comm(ctx);
      comm.barrier();
      const int psize = ctx.size();
      std::vector<int> in(block * static_cast<std::size_t>(psize), ctx.rank());
      std::vector<int> out(in.size());
      const double t0 = ctx.now();
      comm.alltoall(std::span<const int>(in), std::span<int>(out), block);
      const double dt = ctx.now() - t0;
      const double X = static_cast<double>(block * sizeof(int));
      const auto& net = ctx.machine().net;
      const double hockney = (psize - 1) * (net.t_s + X * net.t_w());
      // Each step costs about one startup plus one transfer; allow 30%
      // slack for the send-injection serialization at the first step.
      EXPECT_NEAR(dt, hockney, 0.3 * hockney) << "p=" << psize;
    });
    (void)res;
  }
}

TEST(CollectiveTiming, BarrierCostLogarithmic) {
  auto m = fast_machine();
  auto barrier_time = [&](int p) {
    Engine eng(m);
    double t = 0;
    std::mutex mu;
    eng.run(p, [&](RankCtx& ctx) {
      Comm comm(ctx);
      comm.barrier();  // warm-up to synchronise clocks
      const double t0 = ctx.now();
      comm.barrier();
      std::lock_guard<std::mutex> lock(mu);
      t = std::max(t, ctx.now() - t0);
    });
    return t;
  };
  const double t8 = barrier_time(8);
  const double t64 = barrier_time(64);
  // Dissemination barrier: ~log2(p) rounds; 64 ranks ~ 2x the rounds of 8.
  EXPECT_LT(t64, 3.0 * t8);
  EXPECT_GT(t64, 1.2 * t8);
}

TEST(CollectiveTiming, AllreduceScalesWithLogP) {
  auto m = fast_machine();
  auto time_for = [&](int p) {
    Engine eng(m);
    double worst = 0;
    std::mutex mu;
    eng.run(p, [&](RankCtx& ctx) {
      Comm comm(ctx);
      comm.barrier();
      std::vector<double> in(1024, 1.0), out(1024);
      const double t0 = ctx.now();
      comm.allreduce_sum(std::span<const double>(in), std::span<double>(out));
      std::lock_guard<std::mutex> lock(mu);
      worst = std::max(worst, ctx.now() - t0);
    });
    return worst;
  };
  const double t4 = time_for(4);   // 2 rounds
  const double t16 = time_for(16); // 4 rounds
  EXPECT_NEAR(t16 / t4, 2.0, 0.8);
}

TEST(CollectiveTiming, NaiveAlltoallNoSlowerThanPairwise) {
  // Without bandwidth contention the naive algorithm is an optimistic lower
  // bound; document that relationship (see bench/ablation_alltoall).
  auto m = fast_machine();
  auto time_for = [&](smpi::AlltoallAlgo algo) {
    Engine eng(m);
    double worst = 0;
    std::mutex mu;
    eng.run(16, [&](RankCtx& ctx) {
      smpi::CollectiveConfig cfg;
      cfg.alltoall = algo;
      Comm comm(ctx, cfg);
      comm.barrier();
      const std::size_t block = 1 << 12;
      std::vector<int> in(block * 16, 0), out(block * 16);
      const double t0 = ctx.now();
      comm.alltoall(std::span<const int>(in), std::span<int>(out), block);
      std::lock_guard<std::mutex> lock(mu);
      worst = std::max(worst, ctx.now() - t0);
    });
    return worst;
  };
  EXPECT_LE(time_for(smpi::AlltoallAlgo::kNaive),
            time_for(smpi::AlltoallAlgo::kPairwise) * 1.05);
}

}  // namespace
