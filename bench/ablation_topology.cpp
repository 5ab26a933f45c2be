// Ablation: flat vs two-level (hierarchical) network topology.
//
// The paper's models assume a single Hockney pair (t_s, t_w) for every
// message. On a cluster of multi-core nodes, messages between ranks placed on
// the same node cross shared memory instead of the NIC and are much cheaper.
// This harness enables the simulator's two-level network (sim::
// with_intra_node_link) and measures what that locality is worth for the
// communication-bound kernels, comparing the emergent costs against the
// two-level closed forms in model/comm.hpp.
#include <mutex>

#include "analysis/runner.hpp"
#include "analysis/study.hpp"
#include "bench/figures.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "model/comm.hpp"
#include "npb/classes.hpp"
#include "smpi/comm.hpp"

using namespace isoee;

namespace {

struct AlltoallProbe {
  double time = 0.0;        // worst per-rank transpose time
  double intra_share = 0.0; // fraction of messages that stayed on-node
};

AlltoallProbe measured_alltoall(const sim::MachineSpec& machine, int p, std::size_t block) {
  sim::Engine engine(machine);
  AlltoallProbe probe;
  std::mutex mu;
  const auto run = engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    comm.barrier();
    std::vector<double> in(block * static_cast<std::size_t>(p), 1.0), out(in.size());
    const double t0 = ctx.now();
    comm.alltoall(std::span<const double>(in), std::span<double>(out), block);
    std::lock_guard<std::mutex> lock(mu);
    probe.time = std::max(probe.time, ctx.now() - t0);
  });
  if (run.counters.messages_sent > 0) {
    probe.intra_share = static_cast<double>(run.counters.messages_intra_node) /
                        static_cast<double>(run.counters.messages_sent);
  }
  return probe;
}

model::LinkParams intra_link(const sim::MachineSpec& m) {
  return {m.net.intra_t_s, m.net.intra_t_w()};
}
model::LinkParams inter_link(const sim::MachineSpec& m) { return {m.net.t_s, m.net.t_w()}; }

std::string key_prefix(const sim::MachineSpec& machine) {
  return std::string("ablation_topology\x1f") + exec::machine_fingerprint(machine) +
         '\x1f';
}

/// One alltoall probe as a keyed case (key: machine, p, block, algorithm;
/// payload: {worst per-rank time, intra-node message share}).
exec::Case probe_case(const sim::MachineSpec& machine, int p, std::size_t block) {
  exec::Case c;
  c.threads = sim::resolve_engine_workers(0, p);
  const auto algo = static_cast<int>(smpi::CollectiveConfig{}.alltoall);
  c.cache_key = key_prefix(machine) + std::to_string(p) + '\x1f' + std::to_string(block) +
                '\x1f' + std::to_string(algo);
  c.run = [machine, p, block] {
    const AlltoallProbe probe = measured_alltoall(machine, p, block);
    return exec::encode_doubles({probe.time, probe.intra_share});
  };
  return c;
}

template <typename Config>
using Runner = sim::RunResult (*)(const sim::MachineSpec&, const Config&, int,
                                  const analysis::RunOptions&);

/// One kernel run as a keyed case (key: machine, adapter fingerprint, p;
/// payload: {makespan, total energy, intra-node message share}).
template <typename Config>
exec::Case kernel_case(const sim::MachineSpec& machine, const Config& config, int p,
                       Runner<Config> runner) {
  exec::Case c;
  c.threads = sim::resolve_engine_workers(0, p);
  c.cache_key = key_prefix(machine) + analysis::make_adapter(config)->fingerprint() +
                '\x1f' + std::to_string(p);
  c.run = [machine, config, p, runner] {
    const sim::RunResult run = runner(machine, config, p, {});
    return exec::encode_doubles({run.makespan, run.total_energy_j(),
                                 static_cast<double>(run.counters.messages_intra_node) /
                                     static_cast<double>(run.counters.messages_sent)});
  };
  return c;
}

}  // namespace

int bench::ablation_topology(bench::Context& ctx) {
  const auto flat = sim::system_g();  // no noise: compare against closed forms
  const auto hier = sim::with_intra_node_link(sim::system_g());
  const int cpn = flat.cores_per_node();

  bench::heading("Ablation: flat vs two-level network topology",
                 "paper assumes one Hockney pair; multi-core nodes have two");
  std::printf("cores per node: %d; intra link t_s %.2e s, bw %.2e B/s "
              "(inter: %.2e s, %.2e B/s)\n",
              cpn, hier.net.intra_t_s, hier.net.intra_bandwidth_Bps, hier.net.t_s,
              hier.net.bandwidth_Bps);

  // Every simulation of both tables, as one batch: a flat and a two-level
  // transpose-sized alltoall per p, then FT and CG class A at p = 32 on the
  // flat and the two-level network.
  const int kPs[] = {8, 16, 32, 64};
  const std::size_t block = 1 << 11;  // doubles per destination
  const int p = 32;
  const std::pair<const char*, sim::MachineSpec> nets[] = {
      {"flat", ctx.with_noise(flat)}, {"hier", ctx.with_noise(hier)}};
  std::vector<exec::Case> cases;
  for (int probe_p : kPs) {
    cases.push_back(probe_case(flat, probe_p, block));
    cases.push_back(probe_case(hier, probe_p, block));
  }
  for (const auto& net : nets) {
    cases.push_back(kernel_case(net.second, npb::ft_class(npb::ProblemClass::A), p,
                                &analysis::run_ft));
  }
  for (const auto& net : nets) {
    cases.push_back(kernel_case(net.second, npb::cg_class(npb::ProblemClass::A), p,
                                &analysis::run_cg));
  }
  const std::vector<std::string> runs = ctx.run_cases(cases);
  std::size_t next = 0;  // the next payload, in submission order
  auto next_run = [&] { return exec::decode_doubles(runs.at(next++)); };

  // Transpose-sized alltoall: measured vs the flat and two-level closed forms.
  util::Table table({"p", "intra_msg_share", "flat_model_s", "flat_sim_s",
                     "hier_model_s", "hier_sim_s", "speedup"});
  const double X = static_cast<double>(block) * sizeof(double);
  for (int probe_p : kPs) {
    const model::Topology topo{probe_p, cpn};
    const double flat_model =
        model::hockney_alltoall_time(probe_p, X, flat.net.t_s, flat.net.t_w());
    const double hier_model =
        model::hierarchical_alltoall_time(topo, X, intra_link(hier), inter_link(hier));
    const std::vector<double> flat_probe = next_run();  // {time, intra_share}
    const std::vector<double> hier_probe = next_run();
    table.add_row({util::num(probe_p), util::num(hier_probe.at(1), 3),
                   util::sci(flat_model, 3), util::sci(flat_probe.at(0), 3),
                   util::sci(hier_model, 3), util::sci(hier_probe.at(0), 3),
                   util::num(flat_probe.at(0) / hier_probe.at(0), 2)});
  }
  ctx.emit(table, "ablation_topology_alltoall");

  // End-to-end effect on the communication-bound kernels (FT transposes,
  // CG halo/allreduce) at fixed p.
  std::printf("\n-- kernel makespan and energy, flat vs two-level (p = 32) --\n");
  util::Table kernels({"kernel", "net", "time_s", "energy_J", "intra_msg_share"});
  for (const char* kernel : {"FT-A", "CG-A"}) {
    for (const auto& net : nets) {
      const std::vector<double> run = next_run();  // {makespan, energy, intra_share}
      kernels.add_row({kernel, net.first, util::num(run.at(0), 4),
                       util::num(run.at(1), 1), util::num(run.at(2), 3)});
    }
  }
  ctx.emit(kernels, "ablation_topology_kernels");
  return 0;
}
