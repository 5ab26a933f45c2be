// `collectives`: a seeded stream of sim::Engine::run jobs at p in {32, 64,
// 128} whose bodies run a fixed sequence of tiny-payload smpi::Comm
// collectives, with CG class S mixed in as the one real kernel. Host time is
// the sim scheduler, fiber switches, mailboxes and smpi marshaling, with
// almost no numerics. It is not an end-to-end workload (its run time rose
// 2.6x when the shared host slowed, against 1.45-1.6x for the others; see
// perfbench/README.md): traced runs drive a few rounds of it for the
// message-path metrics.
#include <atomic>
#include <cstdio>
#include <map>
#include <vector>

#include "analysis/runner.hpp"
#include "npb/classes.hpp"
#include "sim/machine.hpp"
#include "smpi/comm.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace isoee;

struct JobTemplate {
  int p;
  int iters;  // collective sequences per job; 0 marks a CG class S job
  double ghz;
};

/// One round: the eight job shapes below, each once (6-45 ms apiece). Gears
/// rotate over the shapes by a fixed rule, since event counts depend on them.
const std::vector<JobTemplate>& round_templates() {
  static const std::vector<JobTemplate> templates = [] {
    const std::vector<double> gears = noisy_system_g().cpu.gears_ghz;
    const int shapes[][2] = {{32, 8}, {32, 16}, {64, 4}, {64, 8},
                             {128, 1}, {128, 2}, {8, 0}, {16, 0}};
    std::vector<JobTemplate> v;
    for (const auto& s : shapes) {
      v.push_back({s[0], s[1], gears[v.size() % gears.size()]});
    }
    return v;
  }();
  return templates;
}

std::string template_key(const JobTemplate& t) {
  char buf[64];
  if (t.iters == 0) {
    std::snprintf(buf, sizeof buf, "collectives/CG.S.p%d.g%g", t.p, t.ghz);
  } else {
    std::snprintf(buf, sizeof buf, "collectives/coll.p%d.k%d.g%g", t.p, t.iters, t.ghz);
  }
  return buf;
}

/// Runs one job. `base` seeds the payload values (never their sizes, so
/// virtual time does not depend on it); every rank checks every collective's
/// result and counts mismatches into `wrong`.
sim::RunResult run_job(const sim::MachineSpec& spec, const JobTemplate& t, int base,
                       std::atomic<int>& wrong) {
  if (t.iters == 0) {
    analysis::RunOptions options;
    options.f_ghz = t.ghz;
    return analysis::run_cg(spec, npb::cg_class(npb::ProblemClass::S), t.p, options);
  }
  sim::EngineOptions opts;
  opts.initial_ghz = t.ghz;
  sim::Engine engine(spec, opts);
  return engine.run(t.p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    const int p = ctx.size();
    const int me = ctx.rank();
    std::vector<double> gathered(static_cast<std::size_t>(p));
    std::vector<double> out(static_cast<std::size_t>(p));
    std::vector<double> in(static_cast<std::size_t>(p));
    int bad = 0;
    for (int k = 0; k < t.iters; ++k) {
      const double x = base + me + k;  // small integers: every sum is exact
      double sum = 0.0;
      comm.allreduce_sum(std::span<const double>(&x, 1), std::span<double>(&sum, 1));
      bad += sum != static_cast<double>(p) * (base + k) + p * (p - 1) / 2.0;

      comm.allgather(std::span<const double>(&x, 1), std::span<double>(gathered));
      for (int j = 0; j < p; ++j) bad += gathered[j] != base + j + k;

      for (int j = 0; j < p; ++j) out[j] = base + me * p + j;
      comm.alltoall(std::span<const double>(out), std::span<double>(in), 1);
      for (int j = 0; j < p; ++j) bad += in[j] != base + j * p + me;

      const int root = k % p;
      double value = me == root ? x : -1.0;
      comm.bcast(std::span<double>(&value, 1), root);
      bad += value != base + root + k;
    }
    if (bad != 0) wrong.fetch_add(bad);
  });
}

struct Job {
  JobTemplate shape;
  int base;  // payload values, seeded
};

class Collectives final : public Workload {
 public:
  explicit Collectives(const Env& env) : env_(env), machine_(noisy_system_g()) {}

  int ops_per_round() const override {
    return static_cast<int>(round_templates().size());
  }
  double rounds_per_second() const override { return 2.2; }

  void setup(std::uint64_t seed, int rounds) override {
    rounds_.assign(static_cast<std::size_t>(rounds), {});
    for (int r = 0; r < rounds; ++r) {
      util::Xoshiro256 rng(mix_seed(seed, 2000 + static_cast<std::uint64_t>(r)));
      std::vector<Job>& jobs = rounds_[static_cast<std::size_t>(r)];
      for (const JobTemplate& t : round_templates()) {
        jobs.push_back({t, static_cast<int>(rng() % 1000)});
      }
      for (std::size_t i = jobs.size(); i > 1; --i) {
        std::swap(jobs[i - 1], jobs[rng() % i]);
      }
    }
    runner_.reset();
    // Warm-up: one job of every shape fills the fiber stack pool to its
    // p=128 high-water mark and first-touches the mailboxes.
    for (const JobTemplate& t : round_templates()) {
      std::atomic<int> wrong{0};
      (void)run_job(machine_, t, 0, wrong);
    }
  }

  void run(int first, int count, Pass& pass) override {
    const Clock::time_point start = Clock::now();
    for (int r = first; r < first + count; ++r) {
      runner_.begin_round();
      for (const Job& job : rounds_.at(static_cast<std::size_t>(r))) {
        runner_.op(pass, template_key(job.shape),
                   job.shape.iters == 0 ? "collectives.run_cg" : "collectives.engine_run",
                   [&](std::string& error) {
                     std::atomic<int> wrong{0};
                     sim::RunResult r = run_job(machine_, job.shape, job.base, wrong);
                     if (wrong.load() != 0) {
                       error = template_key(job.shape) + ": collective results wrong";
                     }
                     return r;
                   });
      }
      runner_.end_round(per_round);
    }
    pass.wall_s += seconds_since(start);
  }

  std::uint64_t verify() override {
    std::uint64_t failed = 0;
    for (const JobTemplate& t : round_templates()) {
      if (t.iters != 0) continue;
      const std::string err = check_numerics(*env_.expected, 'C', 'S', t.p);
      if (!err.empty()) {
        ++failed;
        record_failure(err);
      }
    }
    return failed;
  }

  /// Message-path throughput of this stream: host time per exact engine
  /// event and per message.
  void layer_metrics(const Pass& traced, Metrics& out) override {
    const double rounds = static_cast<double>(traced.attempted) / ops_per_round();
    const double events = static_cast<double>(per_round.events) * rounds;
    const double messages = static_cast<double>(per_round.messages) * rounds;
    out["sim.events_per_s"] = {events / traced.wall_s, "1/s"};
    out["sim.us_per_message"] = {traced.wall_s * 1e6 / messages, "us"};
  }

 private:
  const Env& env_;
  const sim::MachineSpec machine_;
  std::vector<std::vector<Job>> rounds_;
  SerialRunner runner_{*env_.expected, "collectives"};
};

}  // namespace

std::unique_ptr<Workload> make_collectives(const Env& env) {
  return std::make_unique<Collectives>(env);
}

void record_collectives(Expected& out) {
  const sim::MachineSpec spec = noisy_system_g();
  for (const JobTemplate& t : round_templates()) {
    std::atomic<int> wrong{0};
    const Counts c0 = Counts::now();
    const sim::RunResult r = run_job(spec, t, 0, wrong);
    out.put(template_key(t), outcome_of(r, (Counts::now() - c0).events));
  }
}

}  // namespace perfbench
