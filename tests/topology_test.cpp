// Two-level (hierarchical) network topology: machine-spec plumbing, link
// timing in the simulator, the split-volume closed forms in model/comm.hpp
// (asserted exactly against the simulator's locality counters, mirroring
// model_test's CommVolumeP), and the two-level time predictions.
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "model/comm.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "smpi/comm.hpp"

namespace {

using namespace isoee;

sim::MachineSpec quiet_flat() {
  auto m = sim::system_g();
  m.noise.enabled = false;
  return m;
}

sim::MachineSpec quiet_hier() { return sim::with_intra_node_link(quiet_flat()); }

// ---------------------------------------------------------------------------
// MachineSpec plumbing
// ---------------------------------------------------------------------------

TEST(Topology, BlockPlacement) {
  const auto m = quiet_flat();  // system G: 2 sockets x 4 cores = 8 per node
  ASSERT_EQ(m.cores_per_node(), 8);
  EXPECT_EQ(m.node_of_rank(0), 0);
  EXPECT_EQ(m.node_of_rank(7), 0);
  EXPECT_EQ(m.node_of_rank(8), 1);
  EXPECT_TRUE(m.same_node(0, 7));
  EXPECT_FALSE(m.same_node(7, 8));
}

TEST(Topology, FlatNetworkIsDegenerateDefault) {
  const auto m = quiet_flat();
  EXPECT_FALSE(m.net.hierarchical);
  // Same-node messages cost the same as cross-node ones on a flat network.
  EXPECT_DOUBLE_EQ(m.net.startup(true), m.net.startup(false));
  EXPECT_DOUBLE_EQ(m.net.per_byte(true), m.net.per_byte(false));
}

TEST(Topology, IntraNodeLinkIsCheaper) {
  const auto m = quiet_hier();
  EXPECT_TRUE(m.net.hierarchical);
  EXPECT_LT(m.net.startup(true), m.net.startup(false));
  EXPECT_LT(m.net.per_byte(true), m.net.per_byte(false));
  // Defaults derive from the inter-node link: t_s/5 and >= 4x bandwidth.
  EXPECT_DOUBLE_EQ(m.net.intra_t_s, m.net.t_s / 5.0);
  EXPECT_GE(m.net.intra_bandwidth_Bps, 4.0 * m.net.bandwidth_Bps);
  // Explicit parameters win over the derived defaults.
  const auto custom = sim::with_intra_node_link(quiet_flat(), 1e-7, 1e10);
  EXPECT_DOUBLE_EQ(custom.net.intra_t_s, 1e-7);
  EXPECT_DOUBLE_EQ(custom.net.intra_bandwidth_Bps, 1e10);
}

TEST(Topology, ValidateRejectsBadIntraParams) {
  auto m = quiet_hier();
  m.net.intra_bandwidth_Bps = 0.0;
  EXPECT_NE(m.validate(), "");
  m = quiet_hier();
  m.net.intra_t_s = -1.0;
  EXPECT_NE(m.validate(), "");
}

// ---------------------------------------------------------------------------
// Simulator link timing: one message, same-node vs cross-node.
// ---------------------------------------------------------------------------

double one_message_time(const sim::MachineSpec& m, int p, int src, int dst,
                        std::size_t bytes) {
  sim::Engine engine(m);
  double elapsed = 0.0;
  std::mutex mu;
  engine.run(p, [&](sim::RankCtx& ctx) {
    std::vector<std::byte> payload(bytes, std::byte{1});
    if (ctx.rank() == src) {
      ctx.send_bytes(dst, 7, std::span<const std::byte>(payload));
    } else if (ctx.rank() == dst) {
      const double t0 = ctx.now();
      ctx.recv(src, 7, std::span<std::byte>(payload));
      std::lock_guard<std::mutex> lock(mu);
      elapsed = ctx.now() - t0;
    }
  });
  return elapsed;
}

TEST(Topology, MessageTimingUsesTheRightLink) {
  const auto m = quiet_hier();
  const std::size_t bytes = 1 << 14;
  // Ranks 0 and 1 share node 0; ranks 0 and 8 are on different nodes.
  const double intra = one_message_time(m, 16, 0, 1, bytes);
  const double inter = one_message_time(m, 16, 0, 8, bytes);
  EXPECT_NEAR(intra, m.net.intra_t_s + static_cast<double>(bytes) * m.net.intra_t_w(),
              1e-12);
  EXPECT_NEAR(inter, m.net.t_s + static_cast<double>(bytes) * m.net.t_w(), 1e-12);
  EXPECT_LT(intra, inter);
}

// ---------------------------------------------------------------------------
// Split volumes vs simulator locality counters (exact, flat machine: the
// counters classify by placement whether or not the two-level link is on).
// ---------------------------------------------------------------------------

enum class Op { kAlltoall, kAllgather, kAllreduce, kBcast, kBarrier };

sim::RunResult run_op(const sim::MachineSpec& m, int p, Op op, std::size_t elems) {
  sim::Engine engine(m);
  return engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    switch (op) {
      case Op::kAlltoall: {
        std::vector<double> in(elems * static_cast<std::size_t>(p), 1.0), out(in.size());
        comm.alltoall(std::span<const double>(in), std::span<double>(out), elems);
        break;
      }
      case Op::kAllgather: {
        std::vector<double> in(elems, 1.0), out(elems * static_cast<std::size_t>(p));
        comm.allgather(std::span<const double>(in), std::span<double>(out));
        break;
      }
      case Op::kAllreduce: {
        std::vector<double> in(elems, 1.0), out(elems);
        comm.allreduce_sum(std::span<const double>(in), std::span<double>(out));
        break;
      }
      case Op::kBcast: {
        std::vector<double> buf(elems, 1.0);
        comm.bcast(std::span<double>(buf), 0);
        break;
      }
      case Op::kBarrier:
        comm.barrier();
        break;
    }
  });
}

void expect_split_matches(const sim::RunResult& run, const model::SplitVolume& v) {
  const auto total = v.total();
  EXPECT_EQ(run.counters.messages_sent, static_cast<std::uint64_t>(total.messages));
  EXPECT_EQ(run.counters.bytes_sent, static_cast<std::uint64_t>(total.bytes));
  EXPECT_EQ(run.counters.messages_intra_node, static_cast<std::uint64_t>(v.intra.messages));
  EXPECT_EQ(run.counters.bytes_intra_node, static_cast<std::uint64_t>(v.intra.bytes));
}

TEST(SplitVolume, MatchesSimulatorCountersExactly) {
  const auto m = quiet_flat();
  const std::size_t elems = 6;
  const double bytes = static_cast<double>(elems) * sizeof(double);
  for (int p : {2, 3, 5, 8, 13, 16, 32}) {
    const model::Topology topo{p, m.cores_per_node()};
    SCOPED_TRACE("p=" + std::to_string(p));
    expect_split_matches(run_op(m, p, Op::kAlltoall, elems),
                         model::alltoall_split_volume(topo, bytes));
    expect_split_matches(run_op(m, p, Op::kAllgather, elems),
                         model::allgather_split_volume(topo, bytes));
    expect_split_matches(run_op(m, p, Op::kAllreduce, elems),
                         model::allreduce_split_volume(topo, bytes));
    expect_split_matches(run_op(m, p, Op::kBcast, elems),
                         model::bcast_split_volume(topo, bytes));
    expect_split_matches(run_op(m, p, Op::kBarrier, elems),
                         model::barrier_split_volume(topo));
  }
}

TEST(SplitVolume, TotalsAgreeWithFlatVolumes) {
  // The split forms must sum to the flat closed forms for every p.
  for (int p : {2, 3, 5, 8, 16}) {
    const model::Topology topo{p, 8};
    const double bytes = 48.0;
    EXPECT_DOUBLE_EQ(model::alltoall_split_volume(topo, bytes).total().messages,
                     model::alltoall_volume(p, bytes).messages);
    EXPECT_DOUBLE_EQ(model::allgather_split_volume(topo, bytes).total().bytes,
                     model::allgather_volume(p, bytes).bytes);
    EXPECT_DOUBLE_EQ(model::allreduce_split_volume(topo, bytes).total().messages,
                     model::allreduce_volume(p, bytes).messages);
    EXPECT_DOUBLE_EQ(model::bcast_split_volume(topo, bytes).total().messages,
                     model::bcast_volume(p, bytes).messages);
    EXPECT_DOUBLE_EQ(model::barrier_split_volume(topo).total().messages,
                     model::barrier_volume(p).messages);
  }
}

// ---------------------------------------------------------------------------
// Two-level time predictions.
// ---------------------------------------------------------------------------

double measured_alltoall_time(const sim::MachineSpec& m, int p, std::size_t block) {
  sim::Engine engine(m);
  double worst = 0.0;
  std::mutex mu;
  engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    comm.barrier();
    std::vector<double> in(block * static_cast<std::size_t>(p), 1.0), out(in.size());
    const double t0 = ctx.now();
    comm.alltoall(std::span<const double>(in), std::span<double>(out), block);
    std::lock_guard<std::mutex> lock(mu);
    worst = std::max(worst, ctx.now() - t0);
  });
  return worst;
}

TEST(HierarchicalModel, AlltoallTimeTracksSimulator) {
  const auto m = quiet_hier();
  const model::LinkParams intra{m.net.intra_t_s, m.net.intra_t_w()};
  const model::LinkParams inter{m.net.t_s, m.net.t_w()};
  const std::size_t block = 1 << 11;
  const double X = static_cast<double>(block) * sizeof(double);
  for (int p : {8, 16, 32}) {
    const model::Topology topo{p, m.cores_per_node()};
    const double predicted = model::hierarchical_alltoall_time(topo, X, intra, inter);
    const double measured = measured_alltoall_time(m, p, block);
    // Same bound style as model_test's Hockney check: within 10% (mixed
    // intra/inter steps desynchronise ranks slightly; p=8 is exact).
    EXPECT_NEAR(measured, predicted, 0.10 * predicted) << "p=" << p;
  }
  // All ranks on one node: the prediction is exact.
  const model::Topology one_node{8, 8};
  EXPECT_DOUBLE_EQ(measured_alltoall_time(m, 8, block),
                   model::hierarchical_alltoall_time(one_node, X, intra, inter));
}

TEST(HierarchicalModel, DegeneratesToFlatHockney) {
  const auto m = quiet_flat();
  const model::LinkParams link{m.net.t_s, m.net.t_w()};
  const model::Topology topo{16, m.cores_per_node()};
  const double X = 4096.0;
  EXPECT_DOUBLE_EQ(model::hierarchical_alltoall_time(topo, X, link, link),
                   model::hockney_alltoall_time(16, X, link.t_s, link.t_w));
  // The split partitions the flat volume: p(p-1) blocks of X bytes.
  const auto total = model::alltoall_split_volume(topo, X).total();
  EXPECT_DOUBLE_EQ(total.messages, 16.0 * 15.0);
  EXPECT_DOUBLE_EQ(total.bytes, 16.0 * 15.0 * X);
}

TEST(HierarchicalModel, IntraTrafficIsDiscounted) {
  const auto m = quiet_hier();
  const model::LinkParams intra{m.net.intra_t_s, m.net.intra_t_w()};
  const model::LinkParams inter{m.net.t_s, m.net.t_w()};
  const model::Topology topo{16, m.cores_per_node()};
  const auto v = model::alltoall_split_volume(topo, 4096.0);
  EXPECT_GT(v.intra.messages, 0.0);
  EXPECT_GT(v.inter.messages, 0.0);
  EXPECT_LT(model::hierarchical_alltoall_time(topo, 4096.0, intra, inter),
            model::hierarchical_alltoall_time(topo, 4096.0, inter, inter));
}

}  // namespace
