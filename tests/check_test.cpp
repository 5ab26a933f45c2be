// Tests for the src/check property harness itself. The headline test is the
// tier-1 sweep (`ctest -R check_sweep`): 200 generated configs — both
// topologies, every op, every registered collective algorithm, zero-byte and
// huge payloads, perturbed host schedules — through the full differential +
// metamorphic oracle. The rest validates the harness end to end: repro
// strings round-trip and reject malformed input, a deliberately planted
// ring-allgather off-by-one is caught and shrunk to a <= 8-rank repro, the
// TagAllocator recycles safely past its window under adversarial schedules,
// and the governor's decision-trace CSV is byte-identical under perturbation.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/config.hpp"
#include "check/generators.hpp"
#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "governor/governor.hpp"
#include "governor/policies.hpp"
#include "npb/ft.hpp"
#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace {

using namespace isoee;

constexpr std::uint64_t kSweepSeed = 20260806ULL;

// ---------------------------------------------------------------------------
// The tier-1 sweep: 200 generated configs through the full oracle.
// ---------------------------------------------------------------------------

TEST(check_sweep, TwoHundredRandomConfigsHoldEveryInvariant) {
  exec::Executor executor;
  const auto stats = check::run_sweep(kSweepSeed, 200, executor);
  for (const auto& f : stats.failures) {
    ADD_FAILURE() << f.what << "\n  original: " << f.original.repro()
                  << "\n  shrunk:   " << f.shrunk_repro;
  }
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.cases, 200);

  // The sweep must actually exercise what it promises.
  EXPECT_TRUE(stats.covered_all_algorithms()) << stats.summary();
  for (const check::OpKind op : check::kAllOps) {
    const auto it = stats.cases_per_op.find(check::op_name(op));
    ASSERT_NE(it, stats.cases_per_op.end()) << check::op_name(op);
    EXPECT_GT(it->second, 0) << check::op_name(op);
  }
  EXPECT_GT(stats.flat_cases, 0);
  EXPECT_GT(stats.hierarchical_cases, 0);
  EXPECT_GT(stats.zero_byte_cases, 0);
  EXPECT_GT(stats.perturbed_cases, 0);
  EXPECT_GT(stats.tuned_cases, 0);
}

// ---------------------------------------------------------------------------
// Repro strings: round-trip, order-insensitivity, strict parsing.
// ---------------------------------------------------------------------------

TEST(Repro, RoundTripsForEveryGeneratedConfig) {
  for (int i = 0; i < 200; ++i) {
    const check::CheckConfig cfg = check::generate_case(kSweepSeed, i);
    const std::string text = cfg.repro();
    EXPECT_EQ(check::CheckConfig::from_repro(text), cfg) << text;
  }
  // Both presets, written out: parsing a canonical repro and printing it
  // again gives back the same bytes.
  for (const char* text :
       {"op=alltoall,machine=dori,topo=two,p=6,elems=0,algo=bruck,tuned=0,root=0,gear=5,"
        "commgear=1,noise=1,perturb=0,seed=9",
        "op=bcast,machine=systemg,topo=flat,p=5,elems=16,algo=linear,tuned=0,root=4,gear=3,"
        "commgear=0,noise=0,perturb=1,seed=3"}) {
    EXPECT_EQ(check::CheckConfig::from_repro(text).repro(), text);
  }
  // Decision: the machine key accepts every spelling sim::machine_preset
  // does (any case, underscores ignored) and prints the canonical lower-case
  // preset name, so a hand-written repro replays the same case and shrunk
  // repros stay comparable byte for byte.
  const check::CheckConfig spelled = check::CheckConfig::from_repro("op=bcast,machine=System_G");
  EXPECT_EQ(spelled.machine, "systemg");
  EXPECT_EQ(spelled, check::CheckConfig::from_repro("op=bcast,machine=systemg"));
  EXPECT_NE(spelled.repro().find(",machine=systemg,"), std::string::npos) << spelled.repro();
  EXPECT_EQ(check::CheckConfig::from_repro("machine=DORI").machine, "dori");
}

TEST(Repro, ParserIsOrderInsensitive) {
  const check::CheckConfig cfg = check::CheckConfig::from_repro(
      "op=allgather,machine=dori,topo=two,p=6,elems=3,algo=ring,tuned=0,root=0,"
      "gear=1,commgear=1,noise=1,perturb=1,seed=77");
  const check::CheckConfig shuffled = check::CheckConfig::from_repro(
      "seed=77,algo=ring,p=6,noise=1,machine=dori,perturb=1,topo=two,elems=3,"
      "gear=1,commgear=1,tuned=0,root=0,op=allgather");
  EXPECT_EQ(shuffled, cfg);
  EXPECT_EQ(cfg.op, check::OpKind::kAllgather);
  EXPECT_EQ(cfg.algo, static_cast<int>(smpi::AllgatherAlgo::kRing));
  EXPECT_EQ(cfg.p, 6);
  EXPECT_TRUE(cfg.hierarchical);
}

TEST(Repro, OmittedKeysKeepDefaultsAndNumericAlgoIsAccepted) {
  const check::CheckConfig cfg = check::CheckConfig::from_repro("op=bcast,p=5,algo=1");
  EXPECT_EQ(cfg.op, check::OpKind::kBcast);
  EXPECT_EQ(cfg.p, 5);
  EXPECT_EQ(cfg.algo, static_cast<int>(smpi::BcastAlgo::kLinear));
  EXPECT_FALSE(cfg.noise);
  EXPECT_EQ(cfg.seed, 1u);  // default, canonicalized to >= 1
}

TEST(Repro, ParserRejectsMalformedInput) {
  EXPECT_THROW(check::CheckConfig::from_repro("op=nope"), std::invalid_argument);
  EXPECT_THROW(check::CheckConfig::from_repro("flavor=ring"), std::invalid_argument);
  EXPECT_THROW(check::CheckConfig::from_repro("p=4,p=5"), std::invalid_argument);
  EXPECT_THROW(check::CheckConfig::from_repro("p"), std::invalid_argument);
  EXPECT_THROW(check::CheckConfig::from_repro("p=four"), std::invalid_argument);
  EXPECT_THROW(check::CheckConfig::from_repro("op=allgather,algo=bruck"),
               std::invalid_argument);  // bruck is an alltoall algorithm
  EXPECT_THROW(check::CheckConfig::from_repro("op=bcast,topo=ring"),
               std::invalid_argument);
  EXPECT_THROW(check::CheckConfig::from_repro("op=bcast,noise=yes"),
               std::invalid_argument);
  EXPECT_THROW(check::CheckConfig::from_repro("op=bcast,machine=vax"),
               std::invalid_argument);
}

TEST(Repro, CanonicalizeIsIdempotent) {
  for (int i = 0; i < 100; ++i) {
    check::CheckConfig cfg = check::generate_case(kSweepSeed + 1, i);  // canonical
    check::CheckConfig again = cfg;
    again.canonicalize();
    EXPECT_EQ(again, cfg) << cfg.repro();
  }
}

// ---------------------------------------------------------------------------
// Planted bug: the harness must catch an off-by-one ring allgather and
// shrink it to a small, replayable repro (acceptance: <= 8 ranks).
// ---------------------------------------------------------------------------

TEST(PlantedBug, OffByOneRingAllgatherIsCaughtAndShrunk) {
  check::FaultInjection fault;
  fault.ring_allgather_off_by_one = true;

  // A big, feature-loaded config: the shrinker has plenty to strip.
  check::CheckConfig cfg;
  cfg.op = check::OpKind::kAllgather;
  cfg.algo = static_cast<int>(smpi::AllgatherAlgo::kRing);
  cfg.p = 12;
  cfg.elems = 64;
  cfg.hierarchical = true;
  cfg.noise = true;
  cfg.perturb = true;
  cfg.comm_gear = true;
  cfg.gear_index = 2;
  cfg.seed = 99;
  cfg.canonicalize();

  // Healthy code passes this exact config...
  EXPECT_EQ(check::check_case(cfg), std::nullopt);

  // ...the planted fault is caught, and the report carries the repro string.
  const auto failure = check::check_case(cfg, fault);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("repro:"), std::string::npos) << *failure;

  const auto shrunk = check::shrink(cfg, check::failure_predicate(fault));
  EXPECT_LE(shrunk.config.p, 8) << shrunk.config.repro();
  EXPECT_GT(shrunk.accepted, 0);
  EXPECT_GT(shrunk.predicate_calls, 0);

  // The minimized repro string round-trips and still replays to a failure —
  // but only under the fault: the repro blames the code, not the harness.
  const auto replayed = check::CheckConfig::from_repro(shrunk.config.repro());
  EXPECT_EQ(replayed, shrunk.config);
  EXPECT_TRUE(check::check_case(replayed, fault).has_value());
  EXPECT_EQ(check::check_case(replayed), std::nullopt);
}

TEST(PlantedBug, RandomSweepCatchesAndMinimizesTheFault) {
  check::SweepOptions opts;
  opts.fault.ring_allgather_off_by_one = true;
  exec::Executor executor;
  const auto stats = check::run_sweep(kSweepSeed, 100, executor, opts);

  ASSERT_FALSE(stats.failures.empty())
      << "sweep generated no non-empty ring allgather case: " << stats.summary();
  for (const auto& f : stats.failures) {
    EXPECT_EQ(f.original.op, check::OpKind::kAllgather) << f.original.repro();
    EXPECT_LE(f.shrunk.p, 8) << f.shrunk_repro;
    // Every emitted repro replays to a failure under the fault.
    const auto replayed = check::CheckConfig::from_repro(f.shrunk_repro);
    EXPECT_TRUE(check::check_case(replayed, opts.fault).has_value()) << f.shrunk_repro;
  }
}

// ---------------------------------------------------------------------------
// Perturbation: adversarial host schedules must not change results, and the
// tag window must recycle safely across > kWindowBlocks collectives.
// ---------------------------------------------------------------------------

struct TagStats {
  std::uint64_t acquired = 0;
  std::uint64_t violations = 0;
  int in_flight = 0;
  int max_in_flight = 0;
};

struct ManyCollectivesRun {
  double makespan = 0.0;
  double energy_j = 0.0;
  std::vector<TagStats> tags;
  std::vector<std::int64_t> sums;
};

ManyCollectivesRun run_many_collectives(bool perturbed) {
  auto machine = sim::system_g();
  machine.noise.enabled = false;

  sim::EngineOptions opts;
  opts.perturb.enabled = perturbed;
  opts.perturb.seed = 0xadd5eedULL;
  opts.perturb.yield_probability = 0.3;
  opts.perturb.max_sleep_us = 10;
  sim::Engine engine(machine, opts);

  const int p = 4;
  const int rounds = smpi::TagAllocator::kWindowBlocks + 50;  // forces recycling
  ManyCollectivesRun out;
  out.tags.resize(static_cast<std::size_t>(p));
  out.sums.resize(static_cast<std::size_t>(p));
  std::mutex mu;
  const auto result = engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    std::int64_t acc = 0;
    std::vector<std::int64_t> in(1), sum(1);
    for (int i = 0; i < rounds; ++i) {
      if (i % 3 == 0) {
        comm.barrier();
      } else {
        in[0] = 1000 * static_cast<std::int64_t>(ctx.rank() + 1) + i;
        comm.allreduce_sum(std::span<const std::int64_t>(in),
                           std::span<std::int64_t>(sum));
        acc += sum[0];
      }
    }
    TagStats s;
    const smpi::TagAllocator& alloc = comm.tag_allocator();
    s.acquired = alloc.acquired();
    s.violations = alloc.overlap_violations();
    s.in_flight = alloc.in_flight();
    s.max_in_flight = alloc.max_in_flight();
    std::lock_guard<std::mutex> lock(mu);
    out.tags[static_cast<std::size_t>(ctx.rank())] = s;
    out.sums[static_cast<std::size_t>(ctx.rank())] = acc;
  });
  out.makespan = result.makespan;
  out.energy_j = result.total_energy_j();
  return out;
}

TEST(Perturbation, TagWindowRecyclesSafelyUnderAdversarialSchedules) {
  const auto quiet = run_many_collectives(false);
  const auto noisy = run_many_collectives(true);

  const auto expect_safe = [](const ManyCollectivesRun& run, const char* label) {
    for (std::size_t r = 0; r < run.tags.size(); ++r) {
      const TagStats& s = run.tags[r];
      // The run leased more ranges than the window holds, so ranges recycled...
      EXPECT_GT(s.acquired,
                static_cast<std::uint64_t>(smpi::TagAllocator::kWindowBlocks))
          << label << " rank " << r;
      // ...without ever re-leasing a range still held, and all were released.
      EXPECT_EQ(s.violations, 0u) << label << " rank " << r;
      EXPECT_EQ(s.in_flight, 0) << label << " rank " << r;
      EXPECT_GE(s.max_in_flight, 1) << label << " rank " << r;
    }
  };
  expect_safe(quiet, "quiet");
  expect_safe(noisy, "perturbed");

  // Virtual-time results are independent of the host schedule, bit for bit.
  EXPECT_DOUBLE_EQ(noisy.makespan, quiet.makespan);
  EXPECT_DOUBLE_EQ(noisy.energy_j, quiet.energy_j);
  EXPECT_EQ(noisy.sums, quiet.sums);
  for (std::size_t r = 0; r < quiet.tags.size(); ++r) {
    EXPECT_EQ(noisy.tags[r].acquired, quiet.tags[r].acquired) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Governor decision trace under perturbed schedules: the exported CSV is
// sorted on virtual time, so it must be byte-identical across reruns at a
// fixed seed AND against an unperturbed run.
// ---------------------------------------------------------------------------

struct GovernedTraceRun {
  std::string csv;
  std::size_t decision_count = 0;
  double makespan = 0.0;
};

GovernedTraceRun run_governed_ft_trace(bool perturbed, const std::string& path) {
  auto machine = sim::system_g();
  machine.noise.enabled = true;  // the governor observes noisy power
  machine.power.net_poll_cpu_factor = 1.0;

  const int p = 8;
  const double cap = machine.power.system_idle_w() * p * 1.05;  // tight: forces action
  // Control horizons sized for millisecond-scale simulated jobs.
  governor::GovernorSpec gspec;
  gspec.window_s = 0.0005;
  gspec.decision_interval_s = 0.0001;
  gspec.cap_w = cap;
  governor::CapPolicyConfig cap_cfg;
  cap_cfg.gears_ghz = machine.cpu.gears_ghz;
  cap_cfg.cap_w = cap;
  cap_cfg.gamma = machine.power.gamma;
  cap_cfg.min_dwell_s = 0.0002;
  cap_cfg.up_dwell_s = 0.0004;
  governor::Governor gov(machine, gspec, governor::make_cap_policy(cap_cfg));

  powerpack::PhaseLog phases;
  phases.set_observer(gov.phase_hook());
  gov.begin_job(p);

  npb::FtConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 16;
  cfg.iters = 3;

  sim::EngineOptions opts;
  opts.on_segment = gov.engine_hook();
  opts.perturb.enabled = perturbed;
  opts.perturb.seed = 0x50a4ULL;
  opts.perturb.yield_probability = 0.3;
  opts.perturb.max_sleep_us = 10;
  sim::Engine eng(machine, opts);

  GovernedTraceRun out;
  const auto result =
      eng.run(p, [&](sim::RankCtx& ctx) { (void)npb::ft_rank(ctx, cfg, &phases); });
  out.makespan = result.makespan;
  out.decision_count = gov.trace().size();
  EXPECT_TRUE(gov.trace().write_csv(path));
  phases.set_observer(nullptr);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  out.csv = buf.str();
  return out;
}

TEST(Perturbation, GovernorDecisionTraceCsvIsDeterministic) {
  const auto a = run_governed_ft_trace(true, "/tmp/isoee_check_gov_a.csv");
  const auto b = run_governed_ft_trace(true, "/tmp/isoee_check_gov_b.csv");
  const auto plain = run_governed_ft_trace(false, "/tmp/isoee_check_gov_plain.csv");

  ASSERT_FALSE(a.csv.empty());
  EXPECT_GT(a.decision_count, 0u);  // the near-idle cap forces interventions
  // Rerun at the same perturbation seed: byte-identical CSV.
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.decision_count, b.decision_count);
  // Host-schedule independence: the perturbed trace matches the quiet run.
  EXPECT_EQ(a.csv, plain.csv);
  EXPECT_DOUBLE_EQ(a.makespan, plain.makespan);
}

}  // namespace
