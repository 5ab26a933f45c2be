// Cross-algorithm equivalence suite: every registered algorithm of a
// collective family must deliver byte-identical payloads, on power-of-two and
// non-power-of-two rank counts alike, and leave every rank's virtual clock
// monotone. Integer payloads make "byte-identical" well-defined even for the
// reduction families (floating-point combine order differs across
// algorithms). Also covers the registry itself: name round-trips and
// (p, message-size) tuning-table resolution.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "smpi/comm.hpp"

namespace {

using namespace isoee;

// Quiet machine (no noise) so timing assertions are deterministic.
sim::MachineSpec quiet_machine() {
  auto m = sim::system_g();
  m.noise.enabled = false;
  return m;
}

const std::vector<int> kRanks = {3, 4, 6, 8, 12};  // pow2 and non-pow2

/// Runs `body` on p ranks and collects each rank's result buffer plus a
/// monotonicity check on its virtual clock.
template <typename Body>
std::vector<std::vector<std::int64_t>> run_collective(int p, Body body) {
  sim::Engine engine(quiet_machine());
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(p));
  std::mutex mu;
  engine.run(p, [&](sim::RankCtx& ctx) {
    const double t0 = ctx.now();
    auto result = body(ctx);
    EXPECT_GE(ctx.now(), t0) << "virtual clock went backwards on rank " << ctx.rank();
    std::lock_guard<std::mutex> lock(mu);
    out[static_cast<std::size_t>(ctx.rank())] = std::move(result);
  });
  return out;
}

/// Distinct, rank- and index-dependent payload values.
std::int64_t value(int rank, std::size_t i) {
  return 1000 * static_cast<std::int64_t>(rank + 1) + static_cast<std::int64_t>(i);
}

// ---------------------------------------------------------------------------
// alltoall: every algorithm must produce the same permutation of blocks.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::int64_t>> run_alltoall(int p, smpi::AlltoallAlgo algo,
                                                    std::size_t block) {
  return run_collective(p, [&](sim::RankCtx& ctx) {
    smpi::CollectiveConfig cfg;
    cfg.alltoall = algo;
    smpi::Comm comm(ctx, cfg);
    std::vector<std::int64_t> in(block * static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = value(ctx.rank(), i);
    std::vector<std::int64_t> out(in.size());
    comm.alltoall(std::span<const std::int64_t>(in), std::span<std::int64_t>(out), block);
    return out;
  });
}

TEST(Equivalence, AlltoallAllAlgorithmsIdentical) {
  for (int p : kRanks) {
    const std::size_t block = 5;
    const auto reference = run_alltoall(p, smpi::AlltoallAlgo::kPairwise, block);
    for (const auto& info : smpi::registered_algorithms(smpi::Family::kAlltoall)) {
      const auto got =
          run_alltoall(p, static_cast<smpi::AlltoallAlgo>(info.id), block);
      EXPECT_EQ(got, reference) << "alltoall algorithm " << info.name << " at p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// allreduce: recursive doubling vs reduce+bcast.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::int64_t>> run_allreduce(int p, smpi::AllreduceAlgo algo) {
  return run_collective(p, [&](sim::RankCtx& ctx) {
    smpi::CollectiveConfig cfg;
    cfg.allreduce = algo;
    smpi::Comm comm(ctx, cfg);
    std::vector<std::int64_t> in(7), out(7);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = value(ctx.rank(), i);
    comm.allreduce_sum(std::span<const std::int64_t>(in), std::span<std::int64_t>(out));
    return out;
  });
}

TEST(Equivalence, AllreduceAllAlgorithmsIdentical) {
  for (int p : kRanks) {
    const auto reference = run_allreduce(p, smpi::AllreduceAlgo::kRecursiveDoubling);
    // All ranks agree with each other...
    for (int r = 1; r < p; ++r) {
      EXPECT_EQ(reference[static_cast<std::size_t>(r)], reference[0]) << "p=" << p;
    }
    // ...and every algorithm agrees with the reference.
    for (const auto& info : smpi::registered_algorithms(smpi::Family::kAllreduce)) {
      const auto got = run_allreduce(p, static_cast<smpi::AllreduceAlgo>(info.id));
      EXPECT_EQ(got, reference) << "allreduce algorithm " << info.name << " at p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// bcast: binomial vs linear, every root.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::int64_t>> run_bcast(int p, smpi::BcastAlgo algo, int root) {
  return run_collective(p, [&](sim::RankCtx& ctx) {
    smpi::CollectiveConfig cfg;
    cfg.bcast = algo;
    smpi::Comm comm(ctx, cfg);
    std::vector<std::int64_t> buf(9);
    if (ctx.rank() == root) {
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = value(root, i);
    }
    comm.bcast(std::span<std::int64_t>(buf), root);
    return buf;
  });
}

TEST(Equivalence, BcastAllAlgorithmsIdenticalForEveryRoot) {
  for (int p : kRanks) {
    for (int root = 0; root < p; ++root) {
      const auto reference = run_bcast(p, smpi::BcastAlgo::kBinomial, root);
      for (const auto& info : smpi::registered_algorithms(smpi::Family::kBcast)) {
        const auto got = run_bcast(p, static_cast<smpi::BcastAlgo>(info.id), root);
        EXPECT_EQ(got, reference)
            << "bcast algorithm " << info.name << " at p=" << p << " root=" << root;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// allgather: ring vs gather+bcast.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::int64_t>> run_allgather(int p, smpi::AllgatherAlgo algo) {
  return run_collective(p, [&](sim::RankCtx& ctx) {
    smpi::CollectiveConfig cfg;
    cfg.allgather = algo;
    smpi::Comm comm(ctx, cfg);
    std::vector<std::int64_t> in(4);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = value(ctx.rank(), i);
    std::vector<std::int64_t> out(in.size() * static_cast<std::size_t>(p));
    comm.allgather(std::span<const std::int64_t>(in), std::span<std::int64_t>(out));
    return out;
  });
}

TEST(Equivalence, AllgatherAllAlgorithmsIdentical) {
  for (int p : kRanks) {
    const auto reference = run_allgather(p, smpi::AllgatherAlgo::kRing);
    for (const auto& info : smpi::registered_algorithms(smpi::Family::kAllgather)) {
      const auto got = run_allgather(p, static_cast<smpi::AllgatherAlgo>(info.id));
      EXPECT_EQ(got, reference) << "allgather algorithm " << info.name << " at p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Registry: names round-trip and unknown names are rejected.
// ---------------------------------------------------------------------------

TEST(Registry, NamesRoundTrip) {
  for (auto family : {smpi::Family::kBcast, smpi::Family::kAllreduce,
                      smpi::Family::kAllgather, smpi::Family::kAlltoall}) {
    const auto algos = smpi::registered_algorithms(family);
    EXPECT_GE(algos.size(), 2u) << smpi::family_name(family);
    for (const auto& info : algos) {
      EXPECT_EQ(smpi::algorithm_id_from_name(family, info.name), info.id);
      EXPECT_EQ(smpi::algorithm_name(family, info.id), info.name);
    }
  }
  EXPECT_EQ(smpi::alltoall_from_name("bruck"), smpi::AlltoallAlgo::kBruck);
  EXPECT_EQ(smpi::allreduce_from_name("reduce_bcast"), smpi::AllreduceAlgo::kReduceBcast);
  EXPECT_EQ(smpi::bcast_from_name("linear"), smpi::BcastAlgo::kLinear);
  EXPECT_EQ(smpi::allgather_from_name("gather_bcast"), smpi::AllgatherAlgo::kGatherBcast);
  EXPECT_THROW((void)smpi::alltoall_from_name("nope"), std::invalid_argument);
}

TEST(Registry, TuningTableSelectsByRankAndSize) {
  const auto tuning = smpi::CollectiveTuning::mpich_like();
  // Small alltoall payloads go to Bruck, large ones to pairwise.
  EXPECT_EQ(tuning.alltoall.select(64, 64), static_cast<int>(smpi::AlltoallAlgo::kBruck));
  EXPECT_EQ(tuning.alltoall.select(64, 1 << 20),
            static_cast<int>(smpi::AlltoallAlgo::kPairwise));
  // Allreduce switches from recursive doubling to reduce+bcast on size.
  EXPECT_EQ(tuning.allreduce.select(16, 1024),
            static_cast<int>(smpi::AllreduceAlgo::kRecursiveDoubling));
  EXPECT_EQ(tuning.allreduce.select(16, 1 << 20),
            static_cast<int>(smpi::AllreduceAlgo::kReduceBcast));
  // Allgather: small p and payload gather+bcast, otherwise ring.
  EXPECT_EQ(tuning.allgather.select(4, 256),
            static_cast<int>(smpi::AllgatherAlgo::kGatherBcast));
  EXPECT_EQ(tuning.allgather.select(64, 1 << 16),
            static_cast<int>(smpi::AllgatherAlgo::kRing));
}

// ---------------------------------------------------------------------------
// Tag allocator: consecutive collectives lease disjoint ranges above the
// point-to-point tag space, and released ranges recycle cleanly.
// ---------------------------------------------------------------------------

TEST(TagAllocator, LeasesDisjointRangesAboveUserTags) {
  smpi::TagAllocator alloc;
  const auto a = alloc.acquire();
  const auto b = alloc.acquire();
  EXPECT_GE(a.tag(0), smpi::TagAllocator::kCollectiveTagBase);
  EXPECT_EQ(b.tag(0) - a.tag(0), smpi::TagAllocator::kTagsPerBlock);
  // Steps stay inside the leased block, wrapping rather than spilling over.
  EXPECT_EQ(a.tag(smpi::TagAllocator::kTagsPerBlock), a.tag(0));
  EXPECT_LT(a.tag(smpi::TagAllocator::kTagsPerBlock - 1), b.tag(0));
}

TEST(TagAllocator, RecyclesReleasedRangesAcrossTheWindow) {
  smpi::TagAllocator alloc;
  const int first = alloc.acquire().tag(0);  // released immediately
  // Burn through a full window of acquire/release cycles; the allocator must
  // come back to the first range without tripping the in-flight assertion.
  for (int i = 1; i < smpi::TagAllocator::kWindowBlocks; ++i) {
    (void)alloc.acquire();
  }
  EXPECT_EQ(alloc.acquire().tag(0), first);
}

TEST(Registry, TunedCommMatchesFixedAlgorithmPayloads) {
  // A Comm with the tuning table enabled must still produce the reference
  // payloads (the table only picks among equivalent algorithms).
  for (int p : {4, 6}) {
    const std::size_t block = 3;  // small blocks: tuned config picks Bruck
    const auto reference = run_alltoall(p, smpi::AlltoallAlgo::kPairwise, block);
    auto tuned = run_collective(p, [&](sim::RankCtx& ctx) {
      smpi::CollectiveConfig cfg;
      cfg.tuning = smpi::CollectiveTuning::mpich_like();
      smpi::Comm comm(ctx, cfg);
      std::vector<std::int64_t> in(block * static_cast<std::size_t>(p));
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = value(ctx.rank(), i);
      std::vector<std::int64_t> out(in.size());
      comm.alltoall(std::span<const std::int64_t>(in), std::span<std::int64_t>(out),
                    block);
      return out;
    });
    EXPECT_EQ(tuned, reference) << "tuned alltoall at p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Edge-case regressions: zero-byte messages and single-rank jobs. Zero-byte
// transfers are legal (they still pay the t_s startup, like real MPI) and
// must not trip the typed-receive copy path; p=1 collectives degenerate to
// local copies with no traffic at all.
// ---------------------------------------------------------------------------

TEST(EdgeCases, ZeroByteAlltoallEveryAlgorithmCompletesEmpty) {
  for (int p : {3, 4}) {
    for (const auto& info : smpi::registered_algorithms(smpi::Family::kAlltoall)) {
      const auto got = run_alltoall(p, static_cast<smpi::AlltoallAlgo>(info.id), 0);
      for (const auto& payload : got) {
        EXPECT_TRUE(payload.empty())
            << "alltoall " << info.name << " at p=" << p << " with empty blocks";
      }
    }
  }
}

TEST(EdgeCases, ZeroByteMessagesStillPayStartupAndAreCounted) {
  const int p = 4;
  sim::Engine engine(quiet_machine());
  const auto result = engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    comm.alltoall(std::span<const std::int64_t>(), std::span<std::int64_t>(), 0);
  });
  // Pairwise exchange: p-1 empty messages per rank, each charged t_s.
  EXPECT_EQ(result.counters.messages_sent, static_cast<std::uint64_t>(p) * (p - 1));
  EXPECT_EQ(result.counters.bytes_sent, 0u);
  const double t_s = quiet_machine().net.t_s;
  EXPECT_GE(result.makespan, (p - 1) * t_s * 0.5);
}

TEST(EdgeCases, ZeroByteRingAllgatherAndMixedZeroCountAllgatherv) {
  const int p = 5;
  // Uniform zero-size blocks: p-1 empty ring steps per rank, empty output.
  const auto empty = run_collective(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    std::vector<std::int64_t> out;
    comm.allgather(std::span<const std::int64_t>(), std::span<std::int64_t>(out));
    return out;
  });
  for (const auto& payload : empty) EXPECT_TRUE(payload.empty());

  // Mixed zero and non-zero contributions: zero-count ranks still take part
  // in every ring step and the assembled buffer skips their (empty) blocks.
  const std::vector<int> counts = {0, 3, 0, 2, 1};
  std::vector<std::int64_t> expected;
  for (int q = 0; q < p; ++q) {
    for (int i = 0; i < counts[static_cast<std::size_t>(q)]; ++i) {
      expected.push_back(value(q, static_cast<std::size_t>(i)));
    }
  }
  const auto got = run_collective(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    const int r = ctx.rank();
    std::vector<std::int64_t> in(static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]));
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = value(r, i);
    std::vector<std::int64_t> out(expected.size());
    comm.allgatherv(std::span<const std::int64_t>(in), std::span<std::int64_t>(out),
                    std::span<const int>(counts));
    return out;
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

TEST(EdgeCases, SingleRankCollectivesAreLocalCopiesWithNoTraffic) {
  const std::size_t n = 4;
  std::vector<std::int64_t> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = value(0, i);

  sim::Engine engine(quiet_machine());
  const auto result = engine.run(1, [&](sim::RankCtx& ctx) {
    for (const auto& info : smpi::registered_algorithms(smpi::Family::kAlltoall)) {
      smpi::CollectiveConfig cfg;
      cfg.alltoall = static_cast<smpi::AlltoallAlgo>(info.id);
      smpi::Comm comm(ctx, cfg);
      std::vector<std::int64_t> out(n);
      comm.alltoall(std::span<const std::int64_t>(in), std::span<std::int64_t>(out), n);
      EXPECT_EQ(out, in) << "alltoall " << info.name;
    }
    for (const auto& info : smpi::registered_algorithms(smpi::Family::kAllgather)) {
      smpi::CollectiveConfig cfg;
      cfg.allgather = static_cast<smpi::AllgatherAlgo>(info.id);
      smpi::Comm comm(ctx, cfg);
      std::vector<std::int64_t> out(n);
      comm.allgather(std::span<const std::int64_t>(in), std::span<std::int64_t>(out));
      EXPECT_EQ(out, in) << "allgather " << info.name;
    }
    smpi::Comm comm(ctx);
    comm.barrier();
    std::vector<std::int64_t> out(n);
    comm.allreduce_sum(std::span<const std::int64_t>(in), std::span<std::int64_t>(out));
    EXPECT_EQ(out, in);
    std::vector<std::int64_t> buf(in);
    comm.bcast(std::span<std::int64_t>(buf), 0);
    EXPECT_EQ(buf, in);
    comm.scan(std::span<const std::int64_t>(in), std::span<std::int64_t>(out),
              [](std::int64_t& a, const std::int64_t& b) { a += b; });
    EXPECT_EQ(out, in);
  });
  EXPECT_EQ(result.counters.messages_sent, 0u);
  EXPECT_EQ(result.counters.bytes_sent, 0u);
}

// ---------------------------------------------------------------------------
// Tuning tables: exact boundary behaviour of the mpich_like rules. The first
// rule that accommodates (p, bytes) wins; one past each threshold falls to
// the fallback.
// ---------------------------------------------------------------------------

TEST(Registry, TuningTableExactThresholdBoundaries) {
  const auto t = smpi::CollectiveTuning::mpich_like();

  // alltoall: Bruck up to and including 256 B per block, pairwise after.
  EXPECT_EQ(t.alltoall.select(4, 256), static_cast<int>(smpi::AlltoallAlgo::kBruck));
  EXPECT_EQ(t.alltoall.select(4, 257), static_cast<int>(smpi::AlltoallAlgo::kPairwise));
  EXPECT_EQ(t.alltoall.select(1, 0), static_cast<int>(smpi::AlltoallAlgo::kBruck));

  // allreduce: recursive doubling up to and including 32 KiB.
  EXPECT_EQ(t.allreduce.select(3, 32 * 1024),
            static_cast<int>(smpi::AllreduceAlgo::kRecursiveDoubling));
  EXPECT_EQ(t.allreduce.select(3, 32 * 1024 + 1),
            static_cast<int>(smpi::AllreduceAlgo::kReduceBcast));

  // allgather: gather+bcast only inside the (p <= 8, <= 1024 B) box; leaving
  // the box on either axis falls back to ring.
  EXPECT_EQ(t.allgather.select(8, 1024),
            static_cast<int>(smpi::AllgatherAlgo::kGatherBcast));
  EXPECT_EQ(t.allgather.select(9, 1024), static_cast<int>(smpi::AllgatherAlgo::kRing));
  EXPECT_EQ(t.allgather.select(8, 1025), static_cast<int>(smpi::AllgatherAlgo::kRing));
  EXPECT_EQ(t.allgather.select(1, 0),
            static_cast<int>(smpi::AllgatherAlgo::kGatherBcast));

  // bcast: linear only at trivial p; p=3 is already binomial at any size.
  EXPECT_EQ(t.bcast.select(2, 1 << 20), static_cast<int>(smpi::BcastAlgo::kLinear));
  EXPECT_EQ(t.bcast.select(1, 0), static_cast<int>(smpi::BcastAlgo::kLinear));
  EXPECT_EQ(t.bcast.select(3, 0), static_cast<int>(smpi::BcastAlgo::kBinomial));
}

}  // namespace
