#include "analysis/study.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "obs/drift.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace isoee::analysis {

namespace {

/// Digest of the collective-stack settings a kernel config carries; part of
/// every adapter fingerprint (algorithm choice changes counters and timing).
/// A set tuning table is summarized by presence only — the study drivers use
/// the stock presets, which are identical whenever this flag is.
std::string collectives_fp(const smpi::CollectiveConfig& c) {
  return std::to_string(static_cast<int>(c.alltoall)) + "," +
         std::to_string(static_cast<int>(c.allreduce)) + "," +
         std::to_string(static_cast<int>(c.bcast)) + "," +
         std::to_string(static_cast<int>(c.allgather)) + "," +
         (c.tuning ? "tuned" : "fixed") + "," + exec::encode_f64(c.comm_gear_ghz);
}

/// Exact round-trip codecs for the cached simulation-derived quantities: a
/// record's numeric fields, in field-list order, as IEEE-754 hex, so a
/// warm-cache rerun is byte-identical. Ints travel as doubles, exactly.
template <class Record>
std::string encode_numbers(const Record& record) {
  std::vector<double> values;
  Record::fields(record, [&values](const char*, const auto& member) {
    if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(member)>>) {
      values.push_back(static_cast<double>(member));
    }
  });
  return exec::encode_doubles(values);
}

template <class Record>
Record decode_numbers(std::string_view payload, const char* what) {
  const std::vector<double> values = exec::decode_doubles(payload);
  Record record;
  std::size_t i = 0;
  Record::fields(record, [&](const char*, auto& member) {
    using T = std::remove_cvref_t<decltype(member)>;
    if constexpr (std::is_arithmetic_v<T>) {
      if (i < values.size()) member = static_cast<T>(values[i]);
      ++i;
    }
  });
  if (i != values.size()) throw std::invalid_argument(std::string(what) + " entry: wrong arity");
  return record;
}

/// "<NAME>;key=value;…" over a config's field list: integers in decimal,
/// doubles as IEEE-754 hex, the collective stack as collectives_fp.
template <class Config>
std::string config_fingerprint(const char* name, const Config& config) {
  std::string fp = name;
  Config::fields(config, [&fp](const char* key, const auto& member) {
    using T = std::remove_cvref_t<decltype(member)>;
    fp += std::string(";") + key + "=";
    if constexpr (std::is_same_v<T, smpi::CollectiveConfig>) {
      fp += collectives_fp(member);
    } else if constexpr (std::is_integral_v<T>) {
      fp += std::to_string(member);
    } else {
      fp += exec::encode_f64(member);
    }
  });
  return fp;
}

/// Snaps n to a power-of-two cube side >= `min_side`, starting from `side`:
/// side^3 <= n < (2*side)^3, then the closer of the two in log space.
int cube_side(double n, int side, int min_side) {
  while (static_cast<double>(side) * side * side * 8.0 <= n && side < 1024) side *= 2;
  if (n > 0 && std::log2(n) - 3.0 * std::log2(side) > 1.5) side *= 2;
  while (side < min_side) side *= 2;
  return side;
}

// One row per app: its config, runner and workload model, the problem size a
// config runs (`size`), the config a size request at p ranks runs (`snap`),
// the workload fit, whether a stock model exists (workloads.hpp defaults; MG,
// CKPT and SWEEP must be calibrated first) and whether p must be a power of
// two.
using Samples = std::span<const CounterSample>;

struct Ep {
  using Config = npb::EpConfig;
  using Workload = model::EpWorkload;
  static constexpr auto run = &run_ep;
  static constexpr bool kStock = true, kPow2P = false;
  static double size(const Config& c) { return static_cast<double>(c.trials); }
  static Config snap(Config c, double n, int) {
    c.trials = static_cast<std::uint64_t>(n);
    return c;
  }
  static Workload fit(const Config&, Samples s, double t_m) { return fit_ep_workload(s, t_m); }
};

struct Ft {
  using Config = npb::FtConfig;
  using Workload = model::FtWorkload;
  static constexpr auto run = &run_ft;
  static constexpr bool kStock = true, kPow2P = true;
  static double size(const Config& c) { return static_cast<double>(c.total_points()); }
  static Config snap(Config c, double n, int p) {
    c.nx = c.ny = c.nz = cube_side(n, 4, p);  // slab decomposition: nx, nz >= p
    return c;
  }
  static Workload fit(const Config& c, Samples s, double t_m) {
    return fit_ft_workload(s, c.iters, t_m);
  }
};

struct Cg {
  using Config = npb::CgConfig;
  using Workload = model::CgWorkload;
  static constexpr auto run = &run_cg;
  static constexpr bool kStock = true, kPow2P = false;
  static double size(const Config& c) { return static_cast<double>(c.n); }
  static Config snap(Config c, double n, int p) {
    c.n = std::max(static_cast<int>(n), 4 * p);
    return c;
  }
  static Workload fit(const Config& c, Samples s, double t_m) {
    return fit_cg_workload(s, c.outer, c.inner, 2.0 * c.offsets + 1.0, t_m);
  }
};

struct Is {
  using Config = npb::IsConfig;
  using Workload = model::IsWorkload;
  static constexpr auto run = &run_is;
  static constexpr bool kStock = true, kPow2P = false;
  static double size(const Config& c) { return static_cast<double>(c.n_keys); }
  static Config snap(Config c, double n, int) {
    c.n_keys = static_cast<std::uint64_t>(n);
    return c;
  }
  static Workload fit(const Config&, Samples s, double t_m) { return fit_is_workload(s, t_m); }
};

struct Mg {
  using Config = npb::MgConfig;
  using Workload = model::MgWorkload;
  static constexpr auto run = &run_mg;
  static constexpr bool kStock = false, kPow2P = true;
  static double size(const Config& c) { return static_cast<double>(c.total_points()); }
  /// Pins the level hierarchy so predictions stay comparable across p.
  static Config snap(Config c, double n, int p) {
    c.nx = c.ny = c.nz = cube_side(n, 8, 2 * p);  // slab constraint nz/p >= 2
    if (c.max_levels == 0) c.max_levels = 3;
    return c;
  }
  static Workload fit(const Config& c, Samples s, double t_m) {
    return fit_mg_workload(s, c.cycles, t_m);
  }
};

struct Ckpt {
  using Config = npb::CkptConfig;
  using Workload = model::CkptWorkload;
  static constexpr auto run = &run_ckpt;
  static constexpr bool kStock = false, kPow2P = false;
  static double size(const Config& c) { return static_cast<double>(c.elements); }
  static Config snap(Config c, double n, int) {
    c.elements = static_cast<std::uint64_t>(n);
    return c;
  }
  static Workload fit(const Config& c, Samples s, double t_m) {
    return fit_ckpt_workload(s, c.iterations, c.ckpt_every, t_m);
  }
};

struct Sweep {
  using Config = npb::SweepConfig;
  using Workload = model::SweepWorkload;
  static constexpr auto run = &run_sweep;
  static constexpr bool kStock = false, kPow2P = false;
  static double size(const Config& c) { return static_cast<double>(c.total_cells()); }
  /// Square grid with side a multiple of tile_w and >= p rows.
  static Config snap(Config c, double n, int p) {
    int side = c.tile_w;
    while (static_cast<double>(side + c.tile_w) * (side + c.tile_w) <= n) side += c.tile_w;
    while (side < p) side += c.tile_w;
    c.nx = c.ny = side;
    return c;
  }
  static Workload fit(const Config& c, Samples s, double t_m) {
    return fit_sweep_workload(s, c.sweeps, c.tile_w, t_m);
  }
};

template <class App>
class KernelAdapter final : public BenchmarkAdapter {
 public:
  using Config = typename App::Config;
  explicit KernelAdapter(Config base) : base_(std::move(base)) {}
  std::string name() const override { return App::Workload::kName; }

  std::string fingerprint() const override {
    return config_fingerprint(App::Workload::kName, base_);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    const Config cfg = App::snap(base_, n, p);
    if (snapped_n != nullptr) *snapped_n = App::size(cfg);
    return App::run(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<typename App::Workload>(App::fit(base_, samples, t_m));
  }

  double default_n() const override { return App::size(base_); }

 private:
  Config base_;
};

template <class App>
std::unique_ptr<BenchmarkAdapter> adapter(typename App::Config base) {
  return std::make_unique<KernelAdapter<App>>(std::move(base));
}

/// An app's stock model: one immutable instance per workload type.
template <class Workload>
std::shared_ptr<const model::WorkloadModel> stock() {
  static const auto w = std::make_shared<const Workload>();
  return w;
}

template <class App>
constexpr AppInfo app_row() {
  return {App::Workload::kName, [] { return adapter<App>(typename App::Config()); },
          App::kStock ? &stock<typename App::Workload> : nullptr, App::kPow2P};
}

constexpr AppInfo kApps[] = {app_row<Ep>(), app_row<Ft>(),   app_row<Cg>(),    app_row<Is>(),
                             app_row<Mg>(), app_row<Ckpt>(), app_row<Sweep>()};

}  // namespace

std::unique_ptr<BenchmarkAdapter> make_adapter(npb::EpConfig base) { return adapter<Ep>(base); }
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::FtConfig base) { return adapter<Ft>(base); }
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::CgConfig base) { return adapter<Cg>(base); }
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::IsConfig base) { return adapter<Is>(base); }
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::MgConfig base) { return adapter<Mg>(base); }
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::CkptConfig base) {
  return adapter<Ckpt>(base);
}
std::unique_ptr<BenchmarkAdapter> make_adapter(npb::SweepConfig base) {
  return adapter<Sweep>(base);
}

std::span<const AppInfo> app_table() { return kApps; }

const AppInfo* find_app(std::string_view name) {
  for (const AppInfo& app : kApps) {
    if (name == app.name) return &app;
  }
  return nullptr;
}

std::string study_key(const char* kind, const std::string& machine_fp,
                      const std::string& adapter_fp, double n, int p, double f_ghz) {
  return std::string(kind) + '\x1f' + machine_fp + '\x1f' + adapter_fp + '\x1f' +
         exec::encode_f64(n) + '\x1f' + std::to_string(p) + '\x1f' + exec::encode_f64(f_ghz);
}

exec::Case machine_params_case(const sim::MachineSpec& spec, bool measured) {
  exec::Case c;
  c.threads = sim::resolve_engine_workers(0, 2);  // mpptest ping-pong: 2 ranks
  c.cache_key = std::string("machine-params\x1f") + exec::machine_fingerprint(spec) + '\x1f' +
                (measured ? "measured" : "nominal");
  c.run = [spec, measured]() {
    const model::MachineParams m =
        measured ? tools::calibrate_machine(spec) : tools::nominal_machine_params(spec);
    return m.name + '\x1f' + encode_numbers(m);
  };
  return c;
}

model::MachineParams decode_machine_params(const std::string& payload) {
  const std::size_t sep = payload.find('\x1f');
  if (sep == std::string::npos) throw std::invalid_argument("machine-params entry: no name");
  model::MachineParams m = decode_numbers<model::MachineParams>(
      std::string_view(payload).substr(sep + 1), "machine-params");
  m.name = payload.substr(0, sep);
  return m;
}

std::vector<exec::Case> calibration_cases(const sim::MachineSpec& spec,
                                          std::shared_ptr<const BenchmarkAdapter> adapter,
                                          std::span<const double> ns, std::span<const int> ps) {
  const std::string machine_fp = exec::machine_fingerprint(spec);
  const std::string adapter_fp = adapter->fingerprint();
  std::vector<exec::Case> cases;
  const auto add = [&](double n, int p) {
    exec::Case c;
    // Cost = fiber-scheduler workers, not ranks: a p=1024 case occupies a
    // worker or two of the host, so sweeps genuinely parallelize.
    c.threads = sim::resolve_engine_workers(0, p);
    c.cache_key = study_key("calibrate", machine_fp, adapter_fp, n, p, 0.0);
    c.run = [spec, adapter, n, p]() -> std::string {
      double snapped = n;
      const sim::RunResult run = adapter->run(spec, n, p, RunOptions(), &snapped);
      return encode_numbers(make_sample(run, snapped, p));
    };
    cases.push_back(std::move(c));
  };
  for (double n : ns) add(n, 1);
  const double n_par = ns.empty() ? adapter->default_n() : ns.back();
  for (int p : ps) {
    if (p > 1) add(n_par, p);
  }
  return cases;
}

std::unique_ptr<model::WorkloadModel> fit_calibration(const BenchmarkAdapter& adapter,
                                                      std::span<const exec::CaseResult> results,
                                                      double t_m) {
  std::vector<CounterSample> samples;
  samples.reserve(results.size());
  for (const exec::CaseResult& r : results) {
    if (!r.ok()) throw std::runtime_error("calibration run failed: " + r.error);
    samples.push_back(decode_numbers<CounterSample>(r.payload, "counter-sample"));
  }
  return adapter.fit(samples, t_m);
}

exec::Case measure_case(const sim::MachineSpec& spec,
                        std::shared_ptr<const BenchmarkAdapter> adapter, double n, int p,
                        double f_ghz) {
  exec::Case c;
  c.threads = sim::resolve_engine_workers(0, p);
  c.cache_key = study_key("measure", exec::machine_fingerprint(spec), adapter->fingerprint(), n,
                          p, f_ghz);
  c.run = [spec, adapter, n, p, f_ghz]() {
    RunOptions options;
    options.f_ghz = f_ghz;
    Measurement m;
    m.n = n;
    const sim::RunResult run = adapter->run(spec, n, p, options, &m.n);
    m.energy_j = run.total_energy_j();
    m.time_s = run.makespan;
    m.alpha = run.mean_alpha();
    return encode_numbers(m);
  };
  return c;
}

Measurement decode_measurement(const std::string& payload) {
  return decode_numbers<Measurement>(payload, "measure");
}

EnergyStudy::EnergyStudy(sim::MachineSpec machine, std::unique_ptr<BenchmarkAdapter> adapter,
                         bool measured_calibration, exec::Executor& exec)
    : machine_(std::move(machine)), adapter_(std::move(adapter)), exec_(exec) {
  // The microbenchmark pass itself runs simulations, so it is cached too —
  // otherwise a "warm" figure rerun would still simulate its calibration.
  machine_params_ = decode_machine_params(
      run_case(machine_params_case(machine_, measured_calibration), "machine calibration"));
}

std::string EnergyStudy::run_case(exec::Case c, const char* what) const {
  std::vector<exec::Case> cases;
  cases.push_back(std::move(c));
  std::vector<exec::CaseResult> results = exec_.run(cases);
  if (!results[0].ok()) {
    throw std::runtime_error(std::string(what) + " failed: " + results[0].error);
  }
  return std::move(results[0].payload);
}

void EnergyStudy::calibrate(std::span<const double> ns, std::span<const int> ps) {
  // Each calibration point is an independent simulation, so they run as a
  // batch on the executor pool (and are individually cacheable).
  const std::vector<exec::CaseResult> results =
      exec_.run(calibration_cases(machine_, adapter_, ns, ps));
  workload_ = fit_calibration(*adapter_, results, machine_params_.t_m);
  ISOEE_INFO("%s: fitted workload model from %zu samples", adapter_->name().c_str(),
             results.size());
}

model::EnergyPrediction EnergyStudy::predict(double n, int p, double f_ghz) const {
  if (!workload_) throw std::logic_error("EnergyStudy: calibrate() before predict()");
  const double f = f_ghz > 0.0 ? f_ghz : machine_params_.base_ghz;
  model::IsoEnergyModel model(machine_params_.at_frequency(f));
  return model.predict_energy(workload_->at(n, p));
}

model::PerfPrediction EnergyStudy::predict_performance(double n, int p, double f_ghz) const {
  if (!workload_) throw std::logic_error("EnergyStudy: calibrate() before predict()");
  const double f = f_ghz > 0.0 ? f_ghz : machine_params_.base_ghz;
  model::IsoEnergyModel model(machine_params_.at_frequency(f));
  return model.predict_performance(workload_->at(n, p));
}

std::vector<Measurement> EnergyStudy::measure(std::span<const std::pair<double, int>> points,
                                              double f_ghz) const {
  const double f = f_ghz > 0.0 ? f_ghz : machine_params_.base_ghz;
  std::vector<exec::Case> cases;
  cases.reserve(points.size());
  for (const auto& [n, p] : points) cases.push_back(measure_case(machine_, adapter_, n, p, f));
  const std::vector<exec::CaseResult> results = exec_.run(cases);
  std::vector<Measurement> out;
  out.reserve(results.size());
  for (const exec::CaseResult& r : results) {
    if (!r.ok()) throw std::runtime_error("measurement run failed: " + r.error);
    out.push_back(decode_measurement(r.payload));
  }
  return out;
}

ValidationPoint EnergyStudy::validate(double n, int p, double f_ghz) const {
  if (!workload_) throw std::logic_error("EnergyStudy: calibrate() before validate()");
  ValidationPoint point;
  point.benchmark = adapter_->name();
  point.p = p;
  point.f_ghz = f_ghz > 0.0 ? f_ghz : machine_params_.base_ghz;

  const Measurement actual = measure(std::array{std::pair{n, p}}, point.f_ghz)[0];
  point.n = actual.n;
  point.actual_j = actual.energy_j;
  point.actual_s = actual.time_s;

  const model::EnergyPrediction energy = predict(point.n, p, point.f_ghz);
  const model::PerfPrediction perf = predict_performance(point.n, p, point.f_ghz);
  point.predicted_j = energy.Ep;
  point.predicted_s = perf.Tp;
  point.error_pct = util::ape(point.actual_j, point.predicted_j);

  // Every validation pair feeds the always-on model-drift watchdog (cache
  // hits included: the prediction may have changed since the actual was
  // cached, which is exactly the drift we want to see).
  obs::drift().record({machine_.name, point.benchmark, p, point.f_ghz, "energy_j"},
                      point.predicted_j, point.actual_j);
  obs::drift().record({machine_.name, point.benchmark, p, point.f_ghz, "time_s"},
                      point.predicted_s, point.actual_s);
  return point;
}

}  // namespace isoee::analysis
