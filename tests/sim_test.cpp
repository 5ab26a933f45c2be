// Unit and property tests for the virtual-time cluster simulator: machine
// validation, timing semantics, DVFS, overlap, messaging, noise determinism,
// and energy conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "npb/cg.hpp"
#include "npb/classes.hpp"
#include "obs/metrics.hpp"
#include "obs/sched_profiler.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/machine.hpp"
#include "sim/sched.hpp"
#include "smpi/comm.hpp"

namespace {

using namespace isoee;
using sim::Engine;
using sim::MachineSpec;
using sim::RankCtx;

MachineSpec tiny_machine() {
  MachineSpec m;
  m.name = "tiny";
  m.nodes = 16;
  m.sockets_per_node = 2;
  m.cores_per_socket = 4;
  m.cpu.cpi = 1.0;
  m.cpu.base_ghz = 2.0;
  m.cpu.gears_ghz = {2.0, 1.5, 1.0};
  m.mem.caches = {sim::CacheLevel{32 * 1024, 1e-9}, sim::CacheLevel{1 << 20, 5e-9}};
  m.mem.dram_latency_s = 100e-9;
  m.net.t_s = 1e-6;
  m.net.bandwidth_Bps = 1e9;
  m.power.cpu_idle_w = 10;
  m.power.cpu_delta_w = 8;
  m.power.mem_idle_w = 4;
  m.power.mem_delta_w = 5;
  m.power.io_idle_w = 2;
  m.power.io_delta_w = 0;
  m.power.other_w = 14;
  m.power.gamma = 2.0;
  m.mem_overlap = 0.5;
  return m;
}

// --- machine spec ------------------------------------------------------------

TEST(Machine, PresetsValidate) {
  EXPECT_EQ(sim::system_g().validate(), "");
  EXPECT_EQ(sim::dori().validate(), "");
}

TEST(Machine, PresetTopologyMatchesPaper) {
  const auto g = sim::system_g();
  EXPECT_EQ(g.nodes, 325);
  EXPECT_EQ(g.cores_per_node(), 8);
  EXPECT_DOUBLE_EQ(g.cpu.base_ghz, 2.8);
  const auto d = sim::dori();
  EXPECT_EQ(d.nodes, 8);
  EXPECT_EQ(d.cores_per_node(), 4);
}

TEST(Machine, PresetLookupIgnoresCaseAndUnderscoresAndRejectsOtherNames) {
  for (const char* name : {"system_g", "SystemG", "systemg"}) {
    EXPECT_EQ(sim::machine_preset(name).name, "SystemG") << name;
  }
  for (const char* name : {"dori", "Dori"}) {
    EXPECT_EQ(sim::machine_preset(name).name, "Dori") << name;
  }
  for (const char* name : {"", "system", "doris", "system-g"}) {
    try {
      (void)sim::machine_preset(name);
      ADD_FAILURE() << "accepted '" << name << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown machine '" + std::string(name) + "' (have: system_g, dori)");
    }
  }
}

TEST(Machine, ValidateCatchesBadSpecs) {
  auto m = tiny_machine();
  m.nodes = 0;
  EXPECT_NE(m.validate(), "");
  m = tiny_machine();
  m.cpu.gears_ghz = {1.0, 2.0};  // ascending: invalid
  EXPECT_NE(m.validate(), "");
  m = tiny_machine();
  m.power.gamma = 0.5;
  EXPECT_NE(m.validate(), "");
  m = tiny_machine();
  m.mem_overlap = 1.5;
  EXPECT_NE(m.validate(), "");
}

TEST(Machine, TcScalesInverselyWithFrequency) {
  const auto m = tiny_machine();
  EXPECT_DOUBLE_EQ(m.cpu.t_c(2.0), 1.0 / 2.0e9);
  EXPECT_DOUBLE_EQ(m.cpu.t_c(1.0), 2.0 * m.cpu.t_c(2.0));
}

TEST(Machine, MemoryLatencyStaircase) {
  const auto m = tiny_machine();
  // Tiny working set: all L1.
  EXPECT_NEAR(m.mem.access_latency(16 * 1024), 1e-9, 1e-12);
  // Huge working set: mostly DRAM.
  EXPECT_GT(m.mem.access_latency(1ull << 30), 90e-9);
  // Monotone non-decreasing in working set.
  double prev = 0;
  for (std::uint64_t ws = 1024; ws <= (1ull << 28); ws *= 4) {
    const double lat = m.mem.access_latency(ws);
    EXPECT_GE(lat, prev);
    prev = lat;
  }
}

TEST(Machine, CpuDeltaPowerLaw) {
  const auto m = tiny_machine();
  const double at_base = m.power.cpu_delta_at(2.0, 2.0);
  EXPECT_DOUBLE_EQ(at_base, 8.0);
  // gamma = 2: half frequency -> quarter delta power.
  EXPECT_NEAR(m.power.cpu_delta_at(1.0, 2.0), 2.0, 1e-12);
}

// --- engine timing -----------------------------------------------------------

TEST(Engine, ComputeAdvancesClockByTc) {
  Engine eng(tiny_machine());
  auto res = eng.run(1, [](RankCtx& ctx) { ctx.compute(2'000'000'000); });
  // 2e9 instructions at CPI=1, 2 GHz -> 1 second.
  EXPECT_NEAR(res.makespan, 1.0, 1e-9);
  EXPECT_EQ(res.counters.instructions, 2'000'000'000u);
}

TEST(Engine, MemoryAdvancesClockByTm) {
  Engine eng(tiny_machine());
  auto res = eng.run(1, [](RankCtx& ctx) { ctx.memory(10'000'000); });
  EXPECT_NEAR(res.makespan, 1.0, 1e-9);  // 1e7 * 100ns
  EXPECT_EQ(res.counters.mem_accesses, 10'000'000u);
}

TEST(Engine, MemoryWithWorkingSetUsesHierarchy) {
  Engine eng(tiny_machine());
  auto res = eng.run(1, [](RankCtx& ctx) { ctx.memory(1'000'000, 16 * 1024); });
  EXPECT_NEAR(res.makespan, 1e-3, 1e-9);  // L1 latency 1ns
}

TEST(Engine, FusedRegionHidesOverlappedMemoryTime) {
  Engine eng(tiny_machine());  // mem_overlap = 0.5
  auto res = eng.run(1, [](RankCtx& ctx) {
    // compute: 1s; memory: 10M * 100ns = 1s. hidden = 0.5*min = 0.5s.
    ctx.compute_mem(2'000'000'000, 10'000'000);
  });
  EXPECT_NEAR(res.makespan, 1.5, 1e-9);
  const auto& t = res.ranks[0].time;
  EXPECT_NEAR(t.memory_issued, 1.0, 1e-9);  // full issued time kept for energy
  EXPECT_NEAR(t.alpha(), 1.5 / 2.0, 1e-9);  // emergent overlap factor
}

TEST(Engine, AlphaIsOneWithoutOverlap) {
  Engine eng(tiny_machine());
  auto res = eng.run(1, [](RankCtx& ctx) {
    ctx.compute(1'000'000'000);
    ctx.memory(1'000'000);
  });
  EXPECT_NEAR(res.ranks[0].alpha, 1.0, 1e-9);
}

TEST(Engine, DvfsSlowsComputeAndSnapsToGear) {
  Engine eng(tiny_machine());
  auto res = eng.run(1, [](RankCtx& ctx) {
    EXPECT_DOUBLE_EQ(ctx.set_frequency(1.0), 1.0);
    EXPECT_DOUBLE_EQ(ctx.set_frequency(1.2), 1.0);   // snaps to nearest gear
    EXPECT_DOUBLE_EQ(ctx.set_frequency(9.0), 2.0);   // clamps to fastest
    ctx.set_frequency(1.0);
    ctx.compute(2'000'000'000);  // at 1 GHz -> 2 seconds
  });
  EXPECT_NEAR(res.makespan, 2.0, 1e-9);
  EXPECT_GE(res.counters.dvfs_transitions, 2u);
}

TEST(Engine, RejectsBadRankCounts) {
  Engine eng(tiny_machine());
  EXPECT_THROW(eng.run(0, [](RankCtx&) {}), std::invalid_argument);
  EXPECT_THROW(eng.run(10'000, [](RankCtx&) {}), std::invalid_argument);
}

TEST(Engine, RankBodyExceptionPropagates) {
  Engine eng(tiny_machine());
  EXPECT_THROW(eng.run(1, [](RankCtx&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

// Regression: a throwing rank used to leave its peers blocked in recv forever
// (the join below never returned). Now the engine poisons every mailbox on
// the first error, blocked ranks unwind with RankAbandoned, and run() rethrows
// the root cause.
TEST(Engine, ThrowingRankDoesNotDeadlockBlockedPeers) {
  Engine eng(tiny_machine());
  try {
    eng.run(4, [](RankCtx& ctx) {
      if (ctx.rank() == 1) throw std::runtime_error("rank 1 exploded");
      // Everyone else waits on a message rank 1 will never send.
      std::vector<double> buf(8);
      ctx.recv(1, 7, std::span<double>(buf));
    });
    FAIL() << "run() should have thrown";
  } catch (const sim::RankAbandoned&) {
    FAIL() << "run() rethrew the abandonment instead of the root cause";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 exploded");
  }
}

TEST(Engine, PoisonedMailboxStillDeliversArrivedMessages) {
  Engine eng(tiny_machine());
  std::atomic<int> delivered{0};
  try {
    eng.run(3, [&](RankCtx& ctx) {
      std::vector<double> buf(4, static_cast<double>(ctx.rank()));
      if (ctx.rank() == 0) {
        // Send first, then die: rank 1's first recv must still succeed.
        ctx.send(1, 0, std::span<const double>(buf));
        throw std::runtime_error("sender died after send");
      }
      if (ctx.rank() == 1) {
        ctx.recv(0, 0, std::span<double>(buf));  // message already en route
        delivered.fetch_add(1);
        ctx.recv(0, 1, std::span<double>(buf));  // never sent -> abandoned
      }
      if (ctx.rank() == 2) {
        ctx.recv(0, 0, std::span<double>(buf));  // never sent -> abandoned
      }
    });
    FAIL() << "run() should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sender died after send");
  }
  EXPECT_EQ(delivered.load(), 1);
}

TEST(Engine, TotalRunsStartedCountsEveryRun) {
  Engine eng(tiny_machine());
  const std::uint64_t before = Engine::total_runs_started();
  eng.run(2, [](RankCtx& ctx) { ctx.compute(10); });
  eng.run(1, [](RankCtx& ctx) { ctx.compute(10); });
  EXPECT_EQ(Engine::total_runs_started(), before + 2);
}

// --- messaging ---------------------------------------------------------------

TEST(Engine, PingTransferTimeFollowsHockney) {
  auto m = tiny_machine();
  Engine eng(m);
  auto res = eng.run(2, [](RankCtx& ctx) {
    std::vector<double> buf(125000);  // 1 MB
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::span<const double>(buf));
    } else {
      ctx.recv(0, 0, std::span<double>(buf));
    }
  });
  // Receiver clock: sender t_s (1us) + 1MB at 1 GB/s = 1ms.
  EXPECT_NEAR(res.ranks[1].time.total, 1e-6 + 1e-3, 1e-9);
  EXPECT_EQ(res.counters.bytes_sent, 1'000'000u);
  EXPECT_EQ(res.counters.messages_sent, 1u);
}

TEST(Engine, MessagesCarryPayloadIntact) {
  Engine eng(tiny_machine());
  eng.run(2, [](RankCtx& ctx) {
    std::vector<int> data(100);
    if (ctx.rank() == 0) {
      for (int i = 0; i < 100; ++i) data[static_cast<size_t>(i)] = i * i;
      ctx.send(1, 7, std::span<const int>(data));
    } else {
      ctx.recv(0, 7, std::span<int>(data));
      for (int i = 0; i < 100; ++i) EXPECT_EQ(data[static_cast<size_t>(i)], i * i);
    }
  });
}

TEST(Engine, FifoOrderPerSourceAndTag) {
  Engine eng(tiny_machine());
  eng.run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        ctx.send(1, 3, std::span<const int>(&i, 1));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        ctx.recv(0, 3, std::span<int>(&v, 1));
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Engine, IrecvWaitEnablesOverlap) {
  Engine eng(tiny_machine());
  auto res = eng.run(2, [](RankCtx& ctx) {
    std::vector<double> buf(125000);  // 1 MB -> 1 ms transfer
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::span<const double>(buf));
    } else {
      auto h = ctx.irecv(0, 0);
      ctx.compute(2'000'000'000);  // 1 s of compute while the message flies
      auto bytes = ctx.wait(h);
      EXPECT_EQ(bytes.size(), 1'000'000u);
    }
  });
  // Message arrived long before compute finished: no receive wait.
  EXPECT_NEAR(res.ranks[1].time.total, 1.0, 1e-6);
  EXPECT_LT(res.ranks[1].time.network, 2e-3);
}

TEST(Engine, SendToInvalidRankThrows) {
  Engine eng(tiny_machine());
  EXPECT_THROW(eng.run(1,
                       [](RankCtx& ctx) {
                         std::byte b{};
                         ctx.send_bytes(5, 0, std::span<const std::byte>(&b, 1));
                       }),
               std::out_of_range);
}

// --- determinism & noise -------------------------------------------------------

TEST(Engine, RepeatedRunsBitIdentical) {
  for (bool noisy : {false, true}) {
    auto m = tiny_machine();
    m.noise.enabled = noisy;
    auto body = [](RankCtx& ctx) {
      std::vector<double> v(1000, ctx.rank());
      ctx.compute(1'000'000);
      ctx.memory(10'000);
      if (ctx.rank() == 0) {
        ctx.send(1, 0, std::span<const double>(v));
      } else if (ctx.rank() == 1) {
        ctx.recv(0, 0, std::span<double>(v));
      }
    };
    Engine e1(m), e2(m);
    auto r1 = e1.run(4, body);
    auto r2 = e2.run(4, body);
    ASSERT_EQ(r1.ranks.size(), r2.ranks.size());
    EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
    EXPECT_DOUBLE_EQ(r1.energy.total, r2.energy.total);
    for (std::size_t i = 0; i < r1.ranks.size(); ++i) {
      EXPECT_DOUBLE_EQ(r1.ranks[i].time.total, r2.ranks[i].time.total);
    }
  }
}

TEST(Engine, NoiseShiftsTimesSlightly) {
  auto clean = tiny_machine();
  auto noisy = tiny_machine();
  noisy.noise.enabled = true;
  auto body = [](RankCtx& ctx) { ctx.compute(1'000'000'000); };
  auto rc = Engine(clean).run(1, body);
  auto rn = Engine(noisy).run(1, body);
  EXPECT_NE(rc.makespan, rn.makespan);
  // ...but only by a few percent (sigma = 0.02 on one long segment).
  EXPECT_NEAR(rn.makespan / rc.makespan, 1.0, 0.15);
}

// --- energy ------------------------------------------------------------------

TEST(Energy, IdleFloorPlusDeltas) {
  auto m = tiny_machine();
  Engine eng(m);
  auto res = eng.run(1, [](RankCtx& ctx) { ctx.compute(2'000'000'000); });
  // 1 second at full tilt: idle floor = 30 W * 1 s; cpu delta = 8 W * 1 s.
  EXPECT_NEAR(res.energy.idle_floor, 30.0, 1e-6);
  EXPECT_NEAR(res.energy.active_increment, 8.0, 1e-6);
  EXPECT_NEAR(res.energy.total, 38.0, 1e-6);
}

TEST(Energy, ComponentsSumToTotal) {
  Engine eng(tiny_machine());
  auto res = eng.run(4, [](RankCtx& ctx) {
    ctx.compute(100'000'000);
    ctx.memory(100'000);
    if (ctx.rank() == 0) {
      std::vector<double> v(1000);
      ctx.send(1, 0, std::span<const double>(v));
    } else if (ctx.rank() == 1) {
      std::vector<double> v(1000);
      ctx.recv(0, 0, std::span<double>(v));
    }
  });
  const auto& e = res.energy;
  EXPECT_NEAR(e.total, e.cpu + e.memory + e.io + e.other, 1e-9);
  EXPECT_NEAR(e.total, e.idle_floor + e.active_increment, 1e-9);
}

TEST(Energy, DvfsDirectionDependsOnPowerBalance) {
  // Optimal frequency is f* = f0 * sqrt(P_idle / DeltaP0) for gamma = 2 and
  // compute-bound work. With a realistic idle floor (30 W) and a small CPU
  // delta (8 W), racing to idle wins — the paper's CG observation that
  // *higher* f improves energy efficiency. When dynamic power dominates,
  // scaling down wins instead. Both directions must emerge from the model.
  auto body_at = [](double ghz) {
    return [ghz](RankCtx& ctx) {
      ctx.set_frequency(ghz);
      ctx.compute(2'000'000'000);
    };
  };
  {
    auto m = tiny_machine();  // idle 30 W, delta 8 W -> faster is better
    auto fast = Engine(m).run(1, body_at(2.0));
    auto slow = Engine(m).run(1, body_at(1.0));
    EXPECT_LT(fast.energy.total, slow.energy.total);
  }
  {
    auto m = tiny_machine();
    m.power.cpu_delta_w = 120.0;  // dynamic power dominates -> slower is better
    auto fast = Engine(m).run(1, body_at(2.0));
    auto slow = Engine(m).run(1, body_at(1.0));
    EXPECT_LT(slow.energy.total, fast.energy.total);
  }
}

TEST(Energy, EarlyFinishersPadToMakespanAtIdle) {
  Engine eng(tiny_machine());
  auto res = eng.run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) ctx.compute(2'000'000'000);  // 1 s
    // rank 1 does nothing: should be padded with 1 s idle.
  });
  EXPECT_NEAR(res.ranks[1].time.total, res.makespan, 1e-9);
  EXPECT_NEAR(res.ranks[1].time.idle, res.makespan, 1e-9);
  // Idle rank still burns the idle floor.
  EXPECT_NEAR(res.ranks[1].energy.total, 30.0 * res.makespan, 1e-6);
}

TEST(Energy, HigherFrequencyCostsMorePowerPerComputeSecond) {
  auto m = tiny_machine();
  auto res = Engine(m).run(1, [](RankCtx& ctx) {
    ctx.set_frequency(2.0);
    ctx.compute(1'000'000'000);
    ctx.set_frequency(1.0);
    ctx.compute(1'000'000'000);
  });
  // compute_by_ghz has both gears recorded.
  const auto& by = res.ranks[0].time.compute_by_ghz;
  ASSERT_EQ(by.size(), 2u);
  EXPECT_NEAR(by.at(2.0), 0.5, 1e-9);
  EXPECT_NEAR(by.at(1.0), 1.0, 1e-9);
}

// --- tracing ------------------------------------------------------------------

TEST(Trace, SegmentsAreContiguousAndCoverClock) {
  sim::EngineOptions opts;
  opts.record_trace = true;
  Engine eng(tiny_machine(), opts);
  auto res = eng.run(2, [](RankCtx& ctx) {
    ctx.compute(100'000'000);
    ctx.memory(1'000'000);
    if (ctx.rank() == 0) {
      std::vector<double> v(100);
      ctx.send(1, 0, std::span<const double>(v));
    } else {
      std::vector<double> v(100);
      ctx.recv(0, 0, std::span<double>(v));
    }
  });
  ASSERT_EQ(res.traces.size(), 2u);
  for (const auto& trace : res.traces) {
    ASSERT_FALSE(trace.empty());
    double cursor = 0.0;
    double covered = 0.0;
    for (const auto& seg : trace) {
      EXPECT_NEAR(seg.start, cursor, 1e-12);
      cursor = seg.start + seg.duration;
      covered += seg.duration;
    }
    EXPECT_NEAR(covered, res.makespan, 1e-9);
  }
}

// --- parameterised scaling properties -----------------------------------------

class EngineScaling : public ::testing::TestWithParam<int> {};

TEST_P(EngineScaling, EnergyGrowsWithRanksForFixedPerRankWork) {
  const int p = GetParam();
  Engine eng(tiny_machine());
  auto res = eng.run(p, [](RankCtx& ctx) { ctx.compute(100'000'000); });
  // Same per-rank work: makespan constant, total energy proportional to p.
  EXPECT_NEAR(res.makespan, 0.05, 1e-9);
  EXPECT_NEAR(res.energy.total, (30.0 + 8.0) * 0.05 * p, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Ranks, EngineScaling, ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

// --- fiber engine at scale -----------------------------------------------------
//
// Thousand-rank jobs on the fiber scheduler, with RunResult + trace digests
// byte-identical for every worker count, failure unwinding that leaks no
// fiber stacks, and a traced ring whose digest, makespan and energy are
// pinned as literals.

MachineSpec scale_machine() {
  MachineSpec m = tiny_machine();
  m.name = "tiny_4k";
  m.nodes = 512;  // 512 x 2 x 4 = 4096 core slots
  return m;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Bit-exact digest of everything a RunResult observes: per-rank wall clock,
/// energy, alpha, counters, and (when traced) every Segment field. Two runs
/// digest equal iff the simulations were byte-identical.
std::uint64_t digest_result(const sim::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, &r.makespan, sizeof(r.makespan));
  h = fnv1a(h, &r.energy.total, sizeof(double));
  for (const sim::RankResult& rr : r.ranks) {
    h = fnv1a(h, &rr.time.total, sizeof(double));
    h = fnv1a(h, &rr.energy.total, sizeof(double));
    h = fnv1a(h, &rr.alpha, sizeof(double));
    h = fnv1a(h, &rr.counters, sizeof(sim::RankCounters));
  }
  for (const auto& trace : r.traces) {
    for (const sim::Segment& s : trace) {
      h = fnv1a(h, &s.start, sizeof(double));
      h = fnv1a(h, &s.duration, sizeof(double));
      const int act = static_cast<int>(s.activity);
      h = fnv1a(h, &act, sizeof(act));
      h = fnv1a(h, &s.ghz, sizeof(double));
    }
  }
  return h;
}

std::function<void(RankCtx&)> scale_ring_body(int p, int iters) {
  return [p, iters](RankCtx& ctx) {
    const int next = (ctx.rank() + 1) % p;
    const int prev = (ctx.rank() + p - 1) % p;
    double token[2] = {static_cast<double>(ctx.rank()), 0.0};
    for (int i = 0; i < iters; ++i) {
      ctx.compute(1000 + 10 * static_cast<std::uint64_t>(ctx.rank() % 7));
      ctx.send(next, i % 5, std::span<const double>(token));
      ctx.recv(prev, i % 5, std::span<double>(token));
    }
  };
}

/// A p=1024 body whose rank 777 throws. Everyone else blocks on a message
/// only their predecessor can send; rank 778's predecessor is the dead rank,
/// so the whole ring must be unwound via mailbox poisoning rather than
/// finishing normally.
void scale_failing_body(RankCtx& ctx) {
  if (ctx.rank() == 777) throw std::runtime_error("injected at scale");
  double buf[1];
  ctx.recv((ctx.rank() + 1023) % 1024, 1, std::span<double>(buf));
}

TEST(EngineScale, RingAtP1024DigestsIdenticalAcrossWorkerCounts) {
  const MachineSpec m = scale_machine();
  std::uint64_t reference = 0;
  for (const int workers : {1, 2, 8}) {
    sim::EngineOptions opts;
    opts.record_trace = true;
    opts.workers = workers;
    Engine eng(m, opts);
    const auto res = eng.run(1024, scale_ring_body(1024, 10));
    ASSERT_EQ(res.ranks.size(), 1024u);
    EXPECT_GT(res.makespan, 0.0);
    const std::uint64_t d = digest_result(res);
    if (reference == 0) {
      reference = d;
    } else {
      EXPECT_EQ(d, reference) << "workers=" << workers;
    }
  }
}

TEST(EngineScale, AllreduceAtP1024DigestsIdenticalAcrossWorkerCounts) {
  // Recursive-doubling butterfly, hand-rolled so this stays a sim-layer test:
  // log2(p) rounds of pairwise exchange — heavy cross-shard traffic at every
  // distance, the pattern most likely to expose dispatch-order sensitivity.
  const auto body = [](RankCtx& ctx) {
    const int p = ctx.size();
    double acc[4] = {static_cast<double>(ctx.rank()), 1.0, 2.0, 3.0};
    for (int dist = 1; dist < p; dist <<= 1) {
      const int peer = ctx.rank() ^ dist;
      double in[4];
      ctx.send(peer, dist % 7, std::span<const double>(acc));
      ctx.recv(peer, dist % 7, std::span<double>(in));
      for (int k = 0; k < 4; ++k) acc[k] += in[k];
    }
    ctx.compute(500);
  };
  const MachineSpec m = scale_machine();
  std::uint64_t reference = 0;
  for (const int workers : {1, 2, 8}) {
    sim::EngineOptions opts;
    opts.record_trace = true;
    opts.workers = workers;
    Engine eng(m, opts);
    const auto res = eng.run(1024, body);
    const std::uint64_t d = digest_result(res);
    if (reference == 0) {
      reference = d;
    } else {
      EXPECT_EQ(d, reference) << "workers=" << workers;
    }
  }
}

TEST(EngineScale, RingAtP4096CompletesAndIsRepeatable) {
  const MachineSpec m = scale_machine();
  sim::EngineOptions opts;
  opts.workers = 2;
  Engine a(m, opts), b(m, opts);
  const auto r1 = a.run(4096, scale_ring_body(4096, 5));
  const auto r2 = b.run(4096, scale_ring_body(4096, 5));
  ASSERT_EQ(r1.ranks.size(), 4096u);
  EXPECT_GT(r1.makespan, 0.0);
  EXPECT_EQ(digest_result(r1), digest_result(r2));
}

TEST(EngineScale, RingAtP128MatchesPinnedReference) {
  // The literals are what both the fiber engine and the thread-per-rank
  // engine that preceded it produced for this run at commit 662ff3a (Release,
  // GCC 12), so the single engine left still reproduces the old reference.
  const MachineSpec m = scale_machine();
  ASSERT_FALSE(m.noise.enabled);
  sim::EngineOptions opts;
  opts.record_trace = true;
  Engine eng(m, opts);
  const auto res = eng.run(128, scale_ring_body(128, 20));
  EXPECT_EQ(digest_result(res), 0xeac513fc46f0a1ceull);
  EXPECT_EQ(res.makespan, 3.0648000000000016e-05);
  EXPECT_EQ(res.energy.total, 0.12823152000000004);
}

TEST(EngineScale, ProfilerEnabledRunIsByteIdenticalAndAttributed) {
  // The scheduler profiler observes host time only: with sampling on, the
  // simulated results must stay bit-identical to an unprofiled run, while the
  // samples land in known phases under the per-worker collapsed stacks. Each
  // profiled attempt first fails a rank, so the sampler also races two
  // workers through the poison and handle-release paths.
  const MachineSpec m = scale_machine();
  sim::EngineOptions opts;
  opts.record_trace = true;
  opts.workers = 2;
  Engine plain(m, opts);
  const std::uint64_t reference = digest_result(plain.run(1024, scale_ring_body(1024, 10)));

  obs::SchedProfiler& prof = obs::sched_profiler();
  prof.reset();
  obs::SchedProfiler::Options popts;
  popts.interval_us = 100;
  prof.start(popts);
  // The sampler is wall-clock driven; on a loaded host one run can in theory
  // complete between wakeups, so retry (each run must digest identically).
  for (int attempt = 0; attempt < 5 && prof.total_samples() == 0; ++attempt) {
    Engine failing(m, opts);
    EXPECT_THROW(failing.run(1024, scale_failing_body), std::runtime_error);
    Engine profiled(m, opts);
    EXPECT_EQ(digest_result(profiled.run(1024, scale_ring_body(1024, 10))), reference);
  }
  prof.stop();

  EXPECT_GT(prof.total_samples(), 0u);
  for (const auto& row : prof.report()) {
    EXPECT_GE(row.worker, 0);
    const bool known = row.phase == obs::SchedPhase::kIdle ||
                       row.phase == obs::SchedPhase::kHeapDispatch ||
                       row.phase == obs::SchedPhase::kFiberRun ||
                       row.phase == obs::SchedPhase::kMailboxWait;
    EXPECT_TRUE(known);
    EXPECT_EQ(row.rank >= 0, row.phase == obs::SchedPhase::kFiberRun);
  }
  const std::string collapsed = prof.collapsed();
  EXPECT_NE(collapsed.find("isoee_engine;worker_"), std::string::npos);
  prof.reset();
}

TEST(EngineScale, RankFailureAtP1024UnwindsAndLeaksNoFiberStacks) {
  const MachineSpec m = scale_machine();
  const auto run_once = [&] {
    sim::EngineOptions opts;
    opts.workers = 2;
    Engine eng(m, opts);
    EXPECT_THROW(eng.run(1024, scale_failing_body), std::runtime_error);
  };
  run_once();
  // Steady state: every subsequent run returns exactly as many pooled stacks
  // as it borrowed. A leaked (never-unwound) fiber would make the pool level
  // drop run over run. (Under sanitizers the pool is compiled out and both
  // readings are 0 — the unwind itself is still exercised above.)
  const std::size_t level_after_first = sim::detail::Fiber::pooled_stacks();
  run_once();
  const std::size_t level_after_second = sim::detail::Fiber::pooled_stacks();
  EXPECT_EQ(level_after_first, level_after_second);
}

// --- bounded mailboxes -------------------------------------------------------
// A mailbox holds only channels with a queued message, and payload buffers
// are recycled through a per-rank pool capped at kPoolCapBytes. The
// sim.mailbox_* gauges are process-wide high-water marks, so each test
// zeroes them before the run it measures.

obs::Gauge& channels_gauge() { return obs::metrics().gauge("sim.mailbox_channels_max"); }
obs::Gauge& pool_gauge() { return obs::metrics().gauge("sim.mailbox_pool_bytes_max"); }

// CG's messaging shape: a ring allgatherv of the search direction and a
// scalar allreduce per iteration, each call leasing a fresh tag range from
// the TagAllocator window. 2 calls x 320 iterations wrap the 256-block window
// twice, and almost every message lands on a channel the run never used.
void cg_pattern(RankCtx& ctx, int iters) {
  smpi::Comm comm(ctx);
  const int p = ctx.size();
  std::vector<int> counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) counts[static_cast<std::size_t>(r)] = 3 + r % 4;
  std::vector<double> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(ctx.rank())]),
                           static_cast<double>(ctx.rank()));
  std::size_t total = 0;
  for (int c : counts) total += static_cast<std::size_t>(c);
  std::vector<double> all(total);
  for (int it = 0; it < iters; ++it) {
    ctx.compute(2000 + 37 * static_cast<std::uint64_t>(ctx.rank()));
    comm.allgatherv(std::span<const double>(mine), std::span<double>(all),
                    std::span<const int>(counts));
    double dot = 0.0;
    for (double v : all) dot += v;
    const double sum = comm.allreduce_sum(dot);
    mine[0] = sum / static_cast<double>(total * static_cast<std::size_t>(p));
  }
}

TEST(Mailbox, LiveChannelsStayBoundedUnderCgPattern) {
  // A mailbox that kept every channel until the run ended held one per ring
  // step and allreduce round of every call here, thousands per rank (CG S at
  // p=16 reached 4,864). Live channels follow the messages in flight instead:
  // measured 15 = p-1, a left neighbour's whole ring queued ahead.
  constexpr int kIters = 320;
  channels_gauge().reset();
  sim::EngineOptions opts;
  opts.workers = 1;
  Engine eng(tiny_machine(), opts);
  const auto res = eng.run(16, [](RankCtx& ctx) { cg_pattern(ctx, kIters); });
  EXPECT_GT(res.counters.messages_sent, 2u * kIters * 16u);
  EXPECT_GE(channels_gauge().value(), 1.0);
  EXPECT_LE(channels_gauge().value(), 16.0);
}

// Rank 0 sends bursts on one fixed (src, tag) channel and rank 1 drains
// each. Between bursts every rank runs collectives through more than half
// the TagAllocator window, so it wraps every two bursts. Rank 0 sends a
// burst only after rank 1's ready message, and rank 1 sends that right
// before its receive, so (quiet, one worker) rank 1 is always blocked on the
// drained channel when rank 0 re-creates it. Received values feed back into
// virtual time, so any FIFO violation changes the digest.
void drain_and_recreate(RankCtx& ctx) {
  smpi::Comm comm(ctx);
  constexpr int kTag = 42, kReadyTag = 43;
  constexpr int kBursts = 4, kBurst = 5;
  for (int b = 0; b < kBursts; ++b) {
    for (int w = 0; w < smpi::TagAllocator::kWindowBlocks / 2 + 1; ++w) {
      (void)comm.allreduce_sum(static_cast<double>(ctx.rank() + w));
    }
    if (ctx.rank() == 0) {
      ctx.recv(1, kReadyTag, std::span<int>());
      for (int i = 0; i < kBurst; ++i) {
        const int v = b * kBurst + i;
        ctx.send(1, kTag, std::span<const int>(&v, 1));
      }
    } else if (ctx.rank() == 1) {
      ctx.send(0, kReadyTag, std::span<const int>());
      for (int i = 0; i < kBurst; ++i) {
        int v = -1;
        ctx.recv(0, kTag, std::span<int>(&v, 1));
        EXPECT_EQ(v, b * kBurst + i);
        ctx.compute(100 + static_cast<std::uint64_t>(v));
      }
    }
  }
  cg_pattern(ctx, 40);
}

TEST(Mailbox, RecyclingKeepsFifoOrderAndDeterminismAcrossWorkers) {
  const MachineSpec m = tiny_machine();
  sim::EngineOptions quiet;
  quiet.record_trace = true;
  quiet.workers = 1;
  Engine ref_eng(m, quiet);
  const std::uint64_t reference = digest_result(ref_eng.run(16, drain_and_recreate));
  for (const int workers : {1, 2, 8}) {
    sim::EngineOptions opts = quiet;
    opts.workers = workers;
    opts.perturb.enabled = true;
    opts.perturb.seed = 0x5eed0000ULL + static_cast<std::uint64_t>(workers);
    opts.perturb.yield_probability = 0.3;
    Engine eng(m, opts);
    EXPECT_EQ(digest_result(eng.run(16, drain_and_recreate)), reference)
        << "workers=" << workers;
  }
}

TEST(Mailbox, ZeroBytePayloadsNeedNoPooledBuffer) {
  pool_gauge().reset();
  Engine eng(tiny_machine());
  eng.run(2, [](RankCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      if (ctx.rank() == 0) {
        ctx.send(1, i % 3, std::span<const double>());
      } else if (i % 2 == 0) {
        ctx.recv(0, i % 3, std::span<double>());
      } else {
        EXPECT_TRUE(ctx.recv_bytes(0, i % 3).empty());
      }
    }
  });
  EXPECT_EQ(pool_gauge().value(), 0.0);
}

TEST(Mailbox, PoolKeepsAtMostItsCapAndFreesLargerBuffers) {
  const std::size_t cap = sim::detail::FiberScheduler::pool_cap_bytes(2);
  ASSERT_EQ(cap, sim::detail::FiberScheduler::kPoolCapBytes);
  // A wide run splits the run-wide budget across its ranks' pools.
  EXPECT_EQ(sim::detail::FiberScheduler::pool_cap_bytes(4096) * 4096,
            sim::detail::FiberScheduler::kPoolRunBytes);
  // Rank 0 never blocks, so at one worker its whole burst is in flight before
  // rank 1 takes (and recycles) the first message. With more workers rank 1
  // could block first and take a message straight into its buffer, which
  // never touches the pool.
  const auto run_burst = [](std::size_t bytes, int burst) {
    sim::EngineOptions one;
    one.workers = 1;
    Engine eng(tiny_machine(), one);
    eng.run(2, [bytes, burst](RankCtx& ctx) {
      std::vector<unsigned char> buf(bytes);
      for (int i = 0; i < burst; ++i) {
        const auto fill = static_cast<unsigned char>(i + 1);
        if (ctx.rank() == 0) {
          buf.assign(bytes, fill);
          ctx.send(1, 5, std::span<const unsigned char>(buf));
        } else {
          ctx.recv(0, 5, std::span<unsigned char>(buf));
          EXPECT_EQ(buf.front(), fill);
          EXPECT_EQ(buf.back(), fill);
        }
      }
    });
  };
  // A buffer above the cap is freed on receipt, never pooled.
  pool_gauge().reset();
  run_burst(cap + 1, 2);
  EXPECT_EQ(pool_gauge().value(), 0.0);
  // Three half-cap buffers: the pool keeps two and frees the third.
  pool_gauge().reset();
  run_burst(cap / 2, 3);
  EXPECT_EQ(pool_gauge().value(), static_cast<double>(cap));
  // Small buffers round up to a power-of-two size class.
  pool_gauge().reset();
  run_burst(100, 3);
  EXPECT_EQ(pool_gauge().value(), 3.0 * 128.0);
}

TEST(Mailbox, SizeMismatchOnPooledBufferStillThrows) {
  for (const std::size_t want : {3u, 5u}) {
    Engine eng(tiny_machine());
    EXPECT_THROW(eng.run(2,
                         [want](RankCtx& ctx) {
                           std::vector<double> v(4, 1.0);
                           if (ctx.rank() == 0) {
                             ctx.send(1, 0, std::span<const double>(v));  // warms the pool
                             ctx.send(1, 0, std::span<const double>(v));
                           } else {
                             ctx.recv(0, 0, std::span<double>(v));
                             std::vector<double> out(want);
                             ctx.recv(0, 0, std::span<double>(out));
                           }
                         }),
                 std::runtime_error)
        << "want=" << want;
  }
}

// --- receives that are already waiting ------------------------------------------
// A typed receive that blocks waits with its buffer; a delivery of that size
// is copied straight into it. At one worker rank 0 runs first, so a rank-0
// receiver blocks before rank 1 sends, and a rank-0 sender has sent
// everything before rank 1 receives.

obs::Counter& copied_counter() { return obs::metrics().counter("sim.payload_bytes_copied"); }

TEST(WaitingRecv, PayloadBytesCopiedIsOneCopyIntoAWaitingReceiveAndTwoOtherwise) {
  sim::EngineOptions one;
  one.workers = 1;
  // Ping-pong: each receive is posted before its message is sent.
  Engine ping(tiny_machine(), one);
  std::uint64_t before = copied_counter().value();
  auto res = ping.run(2, [](RankCtx& ctx) {
    std::vector<double> buf(16, static_cast<double>(ctx.rank()));
    const int peer = 1 - ctx.rank();
    for (int i = 0; i < 5; ++i) {
      if (ctx.rank() == 0) {
        ctx.recv(peer, 3, std::span<double>(buf));
        EXPECT_EQ(buf.front(), static_cast<double>(i + 1));
        ctx.send(peer, 3, std::span<const double>(buf));
      } else {
        std::fill(buf.begin(), buf.end(), static_cast<double>(i + 1));
        ctx.send(peer, 3, std::span<const double>(buf));
        ctx.recv(peer, 3, std::span<double>(buf));
      }
    }
  });
  EXPECT_EQ(res.counters.bytes_sent, 10u * 16u * sizeof(double));
  EXPECT_EQ(copied_counter().value() - before, res.counters.bytes_sent);

  // A burst: every message is queued before its receive.
  Engine burst(tiny_machine(), one);
  before = copied_counter().value();
  res = burst.run(2, [](RankCtx& ctx) {
    std::vector<double> buf(16);
    for (int i = 0; i < 5; ++i) {
      if (ctx.rank() == 0) {
        ctx.send(1, 3, std::span<const double>(buf));
      } else {
        ctx.recv(0, 3, std::span<double>(buf));
      }
    }
  });
  EXPECT_EQ(copied_counter().value() - before, 2 * res.counters.bytes_sent);
}

TEST(WaitingRecv, SizeMismatchThrowsAndTheNextReceiveGetsTheNextMessage) {
  sim::EngineOptions one;
  one.workers = 1;
  Engine eng(tiny_machine(), one);
  bool threw = false;
  double next = 0.0;
  const auto res = eng.run(2, [&](RankCtx& ctx) {
    constexpr int kTag = 7, kAckTag = 8;
    const int ack = 1;
    if (ctx.rank() == 0) {
      std::vector<double> small(3, -1.0);
      try {
        ctx.recv(1, kTag, std::span<double>(small));  // blocks; a 4-double message wakes it
      } catch (const std::runtime_error& e) {
        threw = std::string(e.what()) == "recv size mismatch";
      }
      EXPECT_EQ(small, std::vector<double>(3, -1.0));  // nothing copied
      ctx.send(1, kAckTag, std::span<const int>(&ack, 1));
      std::vector<double> right(4);
      ctx.recv(1, kTag, std::span<double>(right));  // waits again; filled directly
      next = right.back();
    } else {
      const std::vector<double> first(4, 1.0), second(4, 2.0);
      ctx.send(0, kTag, std::span<const double>(first));
      int got = 0;
      ctx.recv(0, kAckTag, std::span<int>(&got, 1));
      ctx.send(0, kTag, std::span<const double>(second));
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(next, 2.0);
  EXPECT_EQ(res.ranks[0].counters.messages_received, 2u);
}

TEST(WaitingRecv, ZeroByteMessageCompletesAWaitingReceive) {
  sim::EngineOptions one;
  one.workers = 1;
  Engine eng(tiny_machine(), one);
  double value = 0.0;
  const auto res = eng.run(2, [&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.recv(1, 2, std::span<double>());  // blocks first
      ctx.recv(1, 2, std::span<double>(&value, 1));
    } else {
      const double v = 5.0;
      ctx.send(0, 2, std::span<const double>());
      ctx.send(0, 2, std::span<const double>(&v, 1));
    }
  });
  EXPECT_EQ(value, 5.0);
  EXPECT_EQ(res.ranks[0].counters.messages_received, 2u);
  EXPECT_EQ(res.ranks[0].counters.bytes_received, sizeof(double));
}

TEST(WaitingRecv, PeerFailureUnwindsAWaitingReceiveWithRankAbandoned) {
  for (const int workers : {1, 2}) {
    sim::EngineOptions opts;
    opts.workers = workers;
    Engine eng(tiny_machine(), opts);
    bool abandoned = false;
    std::vector<double> buf(8, -1.0);
    try {
      eng.run(2, [&](RankCtx& ctx) {
        if (ctx.rank() == 1) throw std::runtime_error("injected");
        try {
          ctx.recv(1, 0, std::span<double>(buf));
        } catch (const sim::RankAbandoned&) {
          abandoned = true;
          throw;
        }
      });
      ADD_FAILURE() << "run did not throw, workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "injected") << "workers=" << workers;
    }
    EXPECT_TRUE(abandoned) << "workers=" << workers;
    EXPECT_EQ(buf, std::vector<double>(8, -1.0)) << "workers=" << workers;
  }
}

struct CgRun {
  sim::RunResult result;
  npb::CgResult cg;
  std::uint64_t events = 0;
  std::uint64_t copied = 0;
};

CgRun run_cg_s16(int workers) {
  sim::EngineOptions opts;
  opts.workers = workers;
  auto machine = sim::system_g();
  machine.noise.enabled = false;
  Engine eng(machine, opts);
  obs::Counter& events = obs::metrics().counter("engine.events_processed");
  const std::uint64_t events0 = events.value();
  const std::uint64_t copied0 = copied_counter().value();
  CgRun out;
  out.result = eng.run(16, [&](RankCtx& ctx) {
    const npb::CgResult res = npb::cg_rank(ctx, npb::cg_class(npb::ProblemClass::S));
    if (ctx.rank() == 0) out.cg = res;
  });
  out.events = events.value() - events0;
  out.copied = copied_counter().value() - copied0;
  return out;
}

TEST(WaitingRecv, CgAtP16IsByteIdenticalAcrossWorkersAndCopiesLessThanTwice) {
  const CgRun ref = run_cg_s16(1);
  // At one worker the copy count is exact, and many of the allgather's
  // blocks land in receives that are already waiting.
  EXPECT_EQ(run_cg_s16(1).copied, ref.copied);
  EXPECT_GT(ref.copied, ref.result.counters.bytes_sent);
  EXPECT_LT(ref.copied, 2 * ref.result.counters.bytes_sent);
  for (const int workers : {2, 8}) {
    const CgRun got = run_cg_s16(workers);
    EXPECT_EQ(digest_result(got.result), digest_result(ref.result)) << "workers=" << workers;
    EXPECT_EQ(got.result.makespan, ref.result.makespan) << "workers=" << workers;
    EXPECT_EQ(got.result.energy.total, ref.result.energy.total) << "workers=" << workers;
    EXPECT_EQ(got.events, ref.events) << "workers=" << workers;
    EXPECT_EQ(got.cg.zeta, ref.cg.zeta) << "workers=" << workers;
    EXPECT_EQ(got.cg.rnorm, ref.cg.rnorm) << "workers=" << workers;
  }
}

// --- misc engine surface ---------------------------------------------------------

TEST(Engine, IoChargesFlatDuration) {
  Engine eng(tiny_machine());
  auto res = eng.run(1, [](RankCtx& ctx) { ctx.io(0.25); });
  EXPECT_NEAR(res.makespan, 0.25, 1e-12);
  EXPECT_NEAR(res.ranks[0].time.io, 0.25, 1e-12);
}

TEST(Engine, RecvSizeMismatchThrows) {
  Engine eng(tiny_machine());
  EXPECT_THROW(eng.run(2,
                       [](RankCtx& ctx) {
                         double v = 1.0;
                         if (ctx.rank() == 0) {
                           ctx.send(1, 0, std::span<const double>(&v, 1));
                         } else {
                           double out[2];
                           ctx.recv(0, 0, std::span<double>(out, 2));  // wrong size
                         }
                       }),
               std::runtime_error);
}

TEST(Engine, WaitTwiceOnHandleThrows) {
  Engine eng(tiny_machine());
  EXPECT_THROW(eng.run(2,
                       [](RankCtx& ctx) {
                         double v = 1.0;
                         if (ctx.rank() == 0) {
                           ctx.send(1, 0, std::span<const double>(&v, 1));
                           ctx.send(1, 0, std::span<const double>(&v, 1));
                         } else {
                           auto h = ctx.irecv(0, 0);
                           (void)ctx.wait(h);
                           (void)ctx.wait(h);  // already completed
                         }
                       }),
               std::logic_error);
}

TEST(Engine, RunResultAggregatesMatchRankSums) {
  Engine eng(tiny_machine());
  auto res = eng.run(3, [](RankCtx& ctx) {
    ctx.compute(100'000'000 * static_cast<std::uint64_t>(ctx.rank() + 1));
    ctx.memory(10'000);
  });
  double e_sum = 0.0, instr = 0.0;
  for (const auto& r : res.ranks) {
    e_sum += r.energy.total;
    instr += static_cast<double>(r.counters.instructions);
  }
  EXPECT_NEAR(res.energy.total, e_sum, 1e-9);
  EXPECT_DOUBLE_EQ(static_cast<double>(res.counters.instructions), instr);
  // Ranks with less work are idle-padded to the makespan, which inflates
  // their measured alpha above 1 (imbalance absorbed into the factor).
  EXPECT_GE(res.mean_alpha(), 1.0);
  EXPECT_NEAR(res.ranks[2].alpha, 1.0, 1e-6);  // the busiest rank is pure work
}

TEST(Engine, MemoryZeroWorkingSetUsesDram) {
  const auto m = tiny_machine();
  Engine eng(m);
  auto res = eng.run(1, [](RankCtx& ctx) { ctx.memory(1'000'000, 0); });
  EXPECT_NEAR(res.makespan, 1'000'000 * m.mem.dram_latency_s, 1e-12);
}

TEST(Machine, AccessLatencyEdgeCases) {
  const auto m = tiny_machine();
  // Zero working set: innermost-level latency.
  EXPECT_DOUBLE_EQ(m.mem.access_latency(0), m.mem.caches.front().latency_s);
  // No caches at all: always DRAM.
  sim::MemorySpec bare;
  bare.dram_latency_s = 50e-9;
  EXPECT_DOUBLE_EQ(bare.access_latency(0), 50e-9);
  EXPECT_DOUBLE_EQ(bare.access_latency(1 << 20), 50e-9);
}

TEST(Engine, ComputeMemDegenerateArms) {
  Engine eng(tiny_machine());
  auto res = eng.run(1, [](RankCtx& ctx) {
    ctx.compute_mem(0, 1'000'000);     // memory-only path
    ctx.compute_mem(2'000'000'000, 0); // compute-only path
    ctx.compute_mem(0, 0);             // no-op
  });
  EXPECT_NEAR(res.makespan, 0.1 + 1.0, 1e-9);
  EXPECT_NEAR(res.ranks[0].alpha, 1.0, 1e-9);  // nothing fused, no overlap
}

// --- run scratch ---------------------------------------------------------------
// RankCtx::scratch hands each rank a slice of one uninitialized block per
// run. Under ASan a poisoned redzone follows each slice and each array
// carve_scratch cuts, so an overrun into a neighbour is still reported.

bool aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % sim::kScratchAlign == 0;
}

TEST(Scratch, SlicesAreDisjointAlignedAndKeepTheirContents) {
  constexpr std::size_t kBytes = 1000;  // not a multiple of the alignment
  for (int p : {1, 7, 64}) {
    for (int workers : {1, 2}) {
      sim::EngineOptions opts;
      opts.workers = workers;
      Engine eng(tiny_machine(), opts);
      std::vector<std::uintptr_t> starts(static_cast<std::size_t>(p));
      std::vector<int> intact(static_cast<std::size_t>(p), 0);
      eng.run(p, [&](RankCtx& ctx) {
        const std::span<std::byte> slice = ctx.scratch(kBytes);
        const auto r = static_cast<std::size_t>(ctx.rank());
        starts[r] = reinterpret_cast<std::uintptr_t>(slice.data());
        ASSERT_EQ(slice.size(), kBytes);
        for (std::size_t i = 0; i < kBytes; ++i) slice[i] = std::byte((r * 131 + i) & 0xff);
        // A ring message hands the schedule to the neighbours, who write
        // their own slices before this rank re-reads its own.
        const int n = ctx.size();
        const std::byte token{1};
        ctx.send_bytes((ctx.rank() + 1) % n, 0, std::span<const std::byte>(&token, 1));
        (void)ctx.recv_bytes((ctx.rank() + n - 1) % n, 0);
        bool ok = aligned(slice.data());
        for (std::size_t i = 0; i < kBytes; ++i) {
          ok = ok && slice[i] == std::byte((r * 131 + i) & 0xff);
        }
#if defined(ISOEE_ASAN)
        ok = ok && !__asan_address_is_poisoned(slice.data() + kBytes - 1) &&
             __asan_address_is_poisoned(slice.data() + kBytes);
#endif
        intact[r] = ok ? 1 : 0;
      });
      std::vector<std::uintptr_t> sorted = starts;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 1; i < sorted.size(); ++i) {
        EXPECT_GE(sorted[i] - sorted[i - 1], kBytes) << "p=" << p << " workers=" << workers;
      }
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(intact[static_cast<std::size_t>(r)], 1)
            << "p=" << p << " workers=" << workers << " rank=" << r;
      }
    }
  }
}

TEST(Scratch, MismatchedSizeOrSecondCallThrows) {
  Engine eng(tiny_machine());
  EXPECT_THROW(eng.run(2, [](RankCtx& ctx) { (void)ctx.scratch(64 + 8 * ctx.rank()); }),
               std::logic_error);
  EXPECT_THROW(eng.run(1,
                       [](RankCtx& ctx) {
                         (void)ctx.scratch(64);
                         (void)ctx.scratch(64);
                       }),
               std::logic_error);
  // A run that asks for no scratch, or for one same-size slice per rank, is
  // fine.
  EXPECT_NO_THROW(eng.run(3, [](RankCtx& ctx) { ctx.compute(10); }));
  EXPECT_NO_THROW(eng.run(3, [](RankCtx& ctx) { (void)ctx.scratch(128); }));
}

TEST(Scratch, BlockIsFreedWhenTheRunEndsAndWhenARankThrows) {
  Engine eng(tiny_machine());
  const std::size_t before = Engine::scratch_bytes_live();
  std::size_t during = 0;
  eng.run(4, [&](RankCtx& ctx) {
    (void)ctx.scratch(4096);
    if (ctx.rank() == 3) during = Engine::scratch_bytes_live();
  });
  EXPECT_GE(during, before + 4 * 4096);
  EXPECT_EQ(Engine::scratch_bytes_live(), before);
  EXPECT_THROW(eng.run(4,
                       [](RankCtx& ctx) {
                         (void)ctx.scratch(4096);
                         if (ctx.rank() == 2) throw std::runtime_error("rank 2 failed");
                         double buf[1];
                         ctx.recv(2, 0, std::span<double>(buf));  // never sent
                       }),
               std::runtime_error);
  EXPECT_EQ(Engine::scratch_bytes_live(), before);
}

TEST(Scratch, CarveCutsAlignedArraysAndRejectsAShortSlice) {
  Engine eng(tiny_machine());
  eng.run(1, [](RankCtx& ctx) {
    const std::size_t bytes =
        sim::scratch_bytes<double>(3) + sim::scratch_bytes<std::complex<double>>(5);
    std::span<std::byte> slice = ctx.scratch(bytes);
    const std::span<double> a = sim::carve_scratch<double>(slice, 3);
    const std::span<std::complex<double>> b = sim::carve_scratch<std::complex<double>>(slice, 5);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_TRUE(aligned(a.data()));
    EXPECT_TRUE(aligned(b.data()));
    EXPECT_GE(reinterpret_cast<const std::byte*>(b.data()),
              reinterpret_cast<const std::byte*>(a.data() + a.size()));
    EXPECT_TRUE(slice.empty());
#if defined(ISOEE_ASAN)
    EXPECT_FALSE(__asan_address_is_poisoned(&a.back()));
    EXPECT_TRUE(__asan_address_is_poisoned(a.data() + a.size()));
    EXPECT_TRUE(__asan_address_is_poisoned(b.data() + b.size()));
#endif
    EXPECT_THROW((void)sim::carve_scratch<double>(slice, 1), std::length_error);
  });
}

}  // namespace
