// `kernels`: a seeded serial stream of small NPB simulations through
// analysis::run_ft / run_ep / run_cg. Host time is almost all npb numerics
// (FFT first); the scheduler and mailboxes do little.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <vector>

#include "analysis/runner.hpp"
#include "npb/classes.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace isoee;

struct KernelConfig {
  char kernel;  // 'F' FT, 'E' EP, 'C' CG
  char cls;     // 'S' | 'W'
  int p;
  double ghz;
};

/// The configurations: FT 32^3 / 64^3 (2 iterations), EP class S/W and CG
/// class S at p in {1,2,4,8,16}; CG class W stops at p=8 (p=16 takes
/// ~200 ms). Gears rotate over the configurations by a fixed rule: engine
/// event counts depend on the gear, so a seeded gear would make exact counts
/// seed-dependent.
const std::vector<KernelConfig>& all_configs() {
  static const std::vector<KernelConfig> configs = [] {
    const std::vector<double> gears = noisy_system_g().cpu.gears_ghz;
    std::vector<KernelConfig> v;
    for (const char kernel : {'F', 'E', 'C'}) {
      for (const char cls : {'S', 'W'}) {
        for (const int p : {1, 2, 4, 8, 16}) {
          if (kernel == 'C' && cls == 'W' && p == 16) continue;
          v.push_back({kernel, cls, p, gears[v.size() % gears.size()]});
        }
      }
    }
    return v;
  }();
  return configs;
}

/// Copies of a configuration per round. Host costs cluster as FT 32^3 and
/// EP S at 13-19 ms, CG W and CG S p=8 at 30-45 ms, EP W at ~72 ms, and FT
/// 64^3 with CG S p=16 at 115-150 ms; the weights put p50 inside the
/// compute-bound FT 32^3 / EP S cluster and p90 inside the FT 64^3 cluster,
/// away from any cluster edge, and leave FT (FFT first) most of the time.
int copies(const KernelConfig& k) {
  if (k.cls == 'S' && k.kernel != 'C') return 3;
  const bool ft_w = k.kernel == 'F' && k.cls == 'W';
  const bool cg_s16 = k.kernel == 'C' && k.cls == 'S' && k.p == 16;
  return ft_w || cg_s16 ? 2 : 1;
}

/// One round: every configuration, copies(k) times (55 operations).
const std::vector<KernelConfig>& round_configs() {
  static const std::vector<KernelConfig> round = [] {
    std::vector<KernelConfig> v;
    for (const KernelConfig& k : all_configs()) v.insert(v.end(), copies(k), k);
    return v;
  }();
  return round;
}

const KernelConfig& find_config(char kernel, char cls, int p) {
  for (const KernelConfig& k : all_configs()) {
    if (k.kernel == kernel && k.cls == cls && k.p == p) return k;
  }
  throw std::invalid_argument("no kernels configuration for that (kernel, class, p)");
}

npb::ProblemClass problem_class(char cls) {
  return cls == 'S' ? npb::ProblemClass::S : npb::ProblemClass::W;
}

npb::FtConfig ft_config(char cls) {
  npb::FtConfig c = npb::ft_class(problem_class(cls));
  c.iters = 2;
  return c;
}

std::string config_key(const KernelConfig& k) {
  const char* name = k.kernel == 'F' ? "FT" : k.kernel == 'E' ? "EP" : "CG";
  char buf[64];
  std::snprintf(buf, sizeof buf, "kernels/%s.%c.p%d.g%g", name, k.cls, k.p, k.ghz);
  return buf;
}

const char* span_name(char kernel) {
  if (kernel == 'F') return "analysis.run_ft";
  return kernel == 'E' ? "analysis.run_ep" : "analysis.run_cg";
}

sim::RunResult run_config(const sim::MachineSpec& machine, const KernelConfig& k) {
  analysis::RunOptions options;
  options.f_ghz = k.ghz;
  const npb::ProblemClass cls = problem_class(k.cls);
  switch (k.kernel) {
    case 'F': return analysis::run_ft(machine, ft_config(k.cls), k.p, options);
    case 'E': return analysis::run_ep(machine, npb::ep_class(cls), k.p, options);
    default: return analysis::run_cg(machine, npb::cg_class(cls), k.p, options);
  }
}

/// Rank 0's numerical result of one direct run.
struct Numerics {
  std::vector<std::complex<double>> ft;
  npb::EpResult ep;
  npb::CgResult cg;
  std::string err;
};

/// Runs the kernel body directly on the engine and returns its numerical
/// result, checking the run's virtual-time outputs against the expected table
/// (which ties the checked result to the timed operation).
Numerics direct_run(const Expected& expected, const KernelConfig& k) {
  sim::EngineOptions opts;
  opts.initial_ghz = k.ghz;
  sim::Engine engine(noisy_system_g(), opts);
  Numerics out;
  const Counts c0 = Counts::now();
  const sim::RunResult r = engine.run(k.p, [&](sim::RankCtx& ctx) {
    switch (k.kernel) {
      case 'F': {
        npb::FtResult res = npb::ft_rank(ctx, ft_config(k.cls));
        if (ctx.rank() == 0) out.ft = std::move(res.checksums);
        break;
      }
      case 'E': {
        const npb::EpResult res = npb::ep_rank(ctx, npb::ep_class(problem_class(k.cls)));
        if (ctx.rank() == 0) out.ep = res;
        break;
      }
      default: {
        const npb::CgResult res = npb::cg_rank(ctx, npb::cg_class(problem_class(k.cls)));
        if (ctx.rank() == 0) out.cg = res;
      }
    }
  });
  out.err = expected.check(config_key(k), outcome_of(r, (Counts::now() - c0).events));
  return out;
}

class Kernels final : public Workload {
 public:
  explicit Kernels(const Env& env) : env_(env), machine_(noisy_system_g()) {}

  int ops_per_round() const override { return static_cast<int>(round_configs().size()); }
  double rounds_per_second() const override { return 0.6; }

  void setup(std::uint64_t seed, int rounds) override {
    rounds_.assign(static_cast<std::size_t>(rounds), round_configs());
    for (int r = 0; r < rounds; ++r) {
      util::Xoshiro256 rng(mix_seed(seed, 1000 + static_cast<std::uint64_t>(r)));
      std::vector<KernelConfig>& ops = rounds_[static_cast<std::size_t>(r)];
      for (std::size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[rng() % i]);
    }
    runner_.reset();
    // Warm-up: FT 64^3 on one rank touches the largest working set (the
    // heap's high-water mark), and the p=16 runs take the fiber stack pool
    // to its high-water mark.
    (void)run_config(machine_, find_config('F', 'W', 1));
    (void)run_config(machine_, find_config('F', 'S', 16));
    (void)run_config(machine_, find_config('C', 'S', 16));
  }

  void run(int first, int count, Pass& pass) override {
    const Clock::time_point start = Clock::now();
    for (int r = first; r < first + count; ++r) {
      runner_.begin_round();
      for (const KernelConfig& op : rounds_.at(static_cast<std::size_t>(r))) {
        runner_.op(pass, config_key(op), span_name(op.kernel),
                   [&](std::string&) { return run_config(machine_, op); });
      }
      runner_.end_round(per_round);
    }
    pass.wall_s += seconds_since(start);
  }

  std::uint64_t verify() override {
    std::uint64_t failed = 0;
    for (const KernelConfig& k : all_configs()) {
      const std::string err = check_numerics(*env_.expected, k.kernel, k.cls, k.p);
      if (!err.empty()) {
        ++failed;
        record_failure(err);
      }
    }
    return failed;
  }

  void layer_metrics(const Pass& traced, Metrics& out) override {
    for (const char* name : {"analysis.run_ft", "analysis.run_ep", "analysis.run_cg"}) {
      out[std::string(name) + "_ms"] = {median(span_durations(*traced.trace, name)) * 1e3,
                                        "ms"};
    }
    out["npb.instructions"] = {static_cast<double>(runner_.instructions()), "count"};
    out["npb.mem_accesses"] = {static_cast<double>(runner_.mem_accesses()), "count"};
  }

 private:
  const Env& env_;
  const sim::MachineSpec machine_;
  std::vector<std::vector<KernelConfig>> rounds_;
  SerialRunner runner_{*env_.expected, "kernels"};
};

}  // namespace

std::string check_numerics(const Expected& expected, char kernel, char cls, int p) {
  char where[64];
  std::snprintf(where, sizeof where, "numerics %c.%c p=%d: ", kernel, cls, p);
  const Numerics got = direct_run(expected, find_config(kernel, cls, p));
  if (!got.err.empty()) return where + got.err;
  // 1-rank references, computed once per (kernel, class).
  static std::map<std::pair<char, char>, Numerics> refs;
  auto it = refs.find({kernel, cls});
  if (it == refs.end()) {
    Numerics one = p == 1 ? got : direct_run(expected, find_config(kernel, cls, 1));
    if (!one.err.empty()) return where + one.err;
    it = refs.emplace(std::make_pair(kernel, cls), std::move(one)).first;
  }
  const Numerics& ref = it->second;
  switch (kernel) {
    case 'F':
      if (got.ft.empty() || got.ft.size() != ref.ft.size()) {
        return where + std::string("no checksums");
      }
      for (std::size_t i = 0; i < got.ft.size(); ++i) {
        if (!near(got.ft[i].real(), ref.ft[i].real(), 1e-6) ||
            !near(got.ft[i].imag(), ref.ft[i].imag(), 1e-6)) {
          return where + std::string("FT checksum outside the 1e-6 band");
        }
      }
      break;
    case 'E':
      if (!near(got.ep.sx, ref.ep.sx, 1e-9) || !near(got.ep.sy, ref.ep.sy, 1e-9) ||
          got.ep.pairs != ref.ep.pairs || got.ep.counts != ref.ep.counts ||
          got.ep.pairs == 0) {
        return where + std::string("EP sums/counts differ from the 1-rank reference");
      }
      break;
    default:
      if (!near(got.cg.zeta, ref.cg.zeta, 1e-8) || got.cg.nnz != ref.cg.nnz ||
          !std::isfinite(got.cg.zeta)) {
        return where + std::string("CG zeta outside the 1e-8 band");
      }
  }
  return {};
}

std::unique_ptr<Workload> make_kernels(const Env& env) {
  return std::make_unique<Kernels>(env);
}

void record_kernels(Expected& out) {
  const sim::MachineSpec machine = noisy_system_g();
  for (const KernelConfig& k : all_configs()) {
    const Counts c0 = Counts::now();
    const sim::RunResult r = run_config(machine, k);
    out.put(config_key(k), outcome_of(r, (Counts::now() - c0).events));
  }
}

}  // namespace perfbench
