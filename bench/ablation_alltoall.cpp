// Ablation: all-to-all algorithm choice for the FT transpose.
//
// The paper models FT's MPI_Alltoall with the Pairwise-exchange/Hockney
// formula (p-1)(t_s + X t_w). This harness measures the emergent transpose
// cost for three algorithms over the simulated network and compares against
// the closed form, then shows the impact on FT's total energy.
//
// Note: the simulator has no bandwidth contention, so the "naive" algorithm
// (post everything, then drain) is an optimistic lower bound; pairwise
// matches the Hockney model; the store-and-forward ring pays extra hops.
#include <mutex>

#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "model/comm.hpp"
#include "npb/classes.hpp"
#include "smpi/comm.hpp"

using namespace isoee;

namespace {

double measured_alltoall_time(const sim::MachineSpec& machine, int p, std::size_t block,
                              smpi::AlltoallAlgo algo) {
  sim::Engine engine(machine);
  double worst = 0.0;
  std::mutex mu;
  engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::CollectiveConfig cfg;
    cfg.alltoall = algo;
    smpi::Comm comm(ctx, cfg);
    comm.barrier();
    std::vector<double> in(block * static_cast<std::size_t>(p), 1.0), out(in.size());
    const double t0 = ctx.now();
    comm.alltoall(std::span<const double>(in), std::span<double>(out), block);
    std::lock_guard<std::mutex> lock(mu);
    worst = std::max(worst, ctx.now() - t0);
  });
  return worst;
}

std::string key_prefix(const sim::MachineSpec& machine) {
  return std::string("ablation_alltoall\x1f") + exec::machine_fingerprint(machine) +
         '\x1f';
}

/// One alltoall probe as a keyed case (key: machine, p, block, algorithm;
/// payload: {worst per-rank time}).
exec::Case probe_case(const sim::MachineSpec& machine, int p, std::size_t block,
                      smpi::AlltoallAlgo algo) {
  exec::Case c;
  c.threads = sim::resolve_engine_workers(0, p);
  c.cache_key = key_prefix(machine) + std::to_string(p) + '\x1f' + std::to_string(block) +
                '\x1f' + std::to_string(static_cast<int>(algo));
  c.run = [machine, p, block, algo] {
    return exec::encode_doubles({measured_alltoall_time(machine, p, block, algo)});
  };
  return c;
}

}  // namespace

int bench::ablation_alltoall(bench::Context& ctx) {
  auto machine = sim::system_g();  // no noise: compare against the closed form
  bench::heading("Ablation: all-to-all algorithm vs the Hockney model",
                 "the paper's FT analysis uses pairwise exchange / Hockney");

  // Every simulation of the three tables, as one batch: the transpose-sized
  // probes (four algorithms per p), the small-message probes (two per p) and
  // FT class A at p = 32 under three algorithms.
  const int kLargePs[] = {4, 8, 16, 32, 64};
  const int kSmallPs[] = {16, 64, 128};
  const std::size_t kBlock = 1 << 11;  // doubles per destination
  const smpi::AlltoallAlgo kLargeAlgos[] = {smpi::AlltoallAlgo::kPairwise,
                                            smpi::AlltoallAlgo::kRing,
                                            smpi::AlltoallAlgo::kNaive,
                                            smpi::AlltoallAlgo::kBruck};
  const smpi::AlltoallAlgo kSmallAlgos[] = {smpi::AlltoallAlgo::kPairwise,
                                            smpi::AlltoallAlgo::kBruck};
  const std::pair<const char*, smpi::AlltoallAlgo> kFtAlgos[] = {
      {"pairwise", smpi::AlltoallAlgo::kPairwise},
      {"ring", smpi::AlltoallAlgo::kRing},
      {"naive", smpi::AlltoallAlgo::kNaive}};
  const auto noisy = ctx.with_noise(machine);
  std::vector<exec::Case> cases;
  for (int p : kLargePs) {
    for (auto algo : kLargeAlgos) cases.push_back(probe_case(machine, p, kBlock, algo));
  }
  for (int p : kSmallPs) {
    for (auto algo : kSmallAlgos) cases.push_back(probe_case(machine, p, 8, algo));
  }
  for (const auto& algo : kFtAlgos) {
    auto config = npb::ft_class(npb::ProblemClass::A);
    config.collectives.alltoall = algo.second;
    cases.push_back(analysis::measure_case(noisy, analysis::make_adapter(config),
                                           config.total_points(), 32, 0.0));
  }
  const std::vector<std::string> runs = ctx.run_cases(cases);
  std::size_t next = 0;  // the next payload, in submission order
  auto next_time = [&] { return exec::decode_doubles(runs.at(next++)).at(0); };

  util::Table table({"p", "block_KiB", "hockney_s", "pairwise_s", "ring_s", "naive_s",
                     "bruck_s"});
  for (int p : kLargePs) {
    const double X = static_cast<double>(kBlock) * sizeof(double);
    const double hockney =
        model::hockney_alltoall_time(p, X, machine.net.t_s, machine.net.t_w());
    std::vector<std::string> row = {util::num(p), util::num(X / 1024.0, 0),
                                    util::sci(hockney, 3)};
    for (std::size_t a = 0; a < std::size(kLargeAlgos); ++a) {
      row.push_back(util::sci(next_time(), 3));
    }
    table.add_row(std::move(row));
  }
  ctx.emit(table, "ablation_alltoall_time");

  // Small messages: the regime Bruck targets (fewer startups dominate).
  std::printf("\n-- small-message all-to-all (8 doubles per destination) --\n");
  util::Table small({"p", "pairwise_s", "bruck_s"});
  for (int p : kSmallPs) {
    const double pairwise = next_time();
    const double bruck = next_time();
    small.add_row({util::num(p), util::sci(pairwise, 3), util::sci(bruck, 3)});
  }
  ctx.emit(small, "ablation_alltoall_small");

  // End-to-end effect on FT energy.
  std::printf("\n-- FT total energy per all-to-all algorithm (class A, p = 32) --\n");
  util::Table ft_table({"algorithm", "time_s", "energy_J"});
  for (const auto& algo : kFtAlgos) {
    const analysis::Measurement run = analysis::decode_measurement(runs.at(next++));
    ft_table.add_row({algo.first, util::num(run.time_s, 4), util::num(run.energy_j, 1)});
  }
  ctx.emit(ft_table, "ablation_alltoall_ft");
  return 0;
}
