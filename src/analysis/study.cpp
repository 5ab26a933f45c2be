#include "analysis/study.hpp"

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

class EpAdapter final : public BenchmarkAdapter {
 public:
  explicit EpAdapter(npb::EpConfig base) : base_(base) {}
  std::string name() const override { return "EP"; }

  std::string fingerprint() const override {
    return "EP;trials=" + std::to_string(base_.trials) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::EpConfig cfg = base_;
    cfg.trials = static_cast<std::uint64_t>(n);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.trials);
    return run_ep(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::EpWorkload>(fit_ep_workload(samples, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.trials); }

 private:
  npb::EpConfig base_;
};

class FtAdapter final : public BenchmarkAdapter {
 public:
  explicit FtAdapter(npb::FtConfig base) : base_(base) {}
  std::string name() const override { return "FT"; }

  std::string fingerprint() const override {
    return "FT;nx=" + std::to_string(base_.nx) + ";ny=" + std::to_string(base_.ny) +
           ";nz=" + std::to_string(base_.nz) + ";iters=" + std::to_string(base_.iters) +
           ";alpha=" + exec::encode_f64(base_.evolve_alpha) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    const npb::FtConfig cfg = config_for(n, p);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.total_points());
    return run_ft(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::FtWorkload>(fit_ft_workload(samples, base_.iters, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.total_points()); }

  /// Snaps n to a power-of-two cubic grid with sides >= p (slab constraint).
  npb::FtConfig config_for(double n, int p) const {
    npb::FtConfig cfg = base_;
    int side = 4;
    while (static_cast<double>(side) * side * side * 8.0 <= n && side < 1024) side *= 2;
    // side^3 <= n < (2*side)^3: choose the closer one in log space.
    if (n > 0 && std::log2(n) - 3.0 * std::log2(side) > 1.5) side *= 2;
    while (side < p) side *= 2;  // decomposition requires nx, nz >= p
    cfg.nx = cfg.ny = cfg.nz = side;
    return cfg;
  }

 private:
  npb::FtConfig base_;
};

class CgAdapter final : public BenchmarkAdapter {
 public:
  explicit CgAdapter(npb::CgConfig base) : base_(base) {}
  std::string name() const override { return "CG"; }

  std::string fingerprint() const override {
    return "CG;n=" + std::to_string(base_.n) + ";offsets=" + std::to_string(base_.offsets) +
           ";outer=" + std::to_string(base_.outer) + ";inner=" + std::to_string(base_.inner) +
           ";shift=" + exec::encode_f64(base_.shift) + ";seed=" + std::to_string(base_.seed) +
           ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::CgConfig cfg = base_;
    cfg.n = std::max(static_cast<int>(n), 4 * p);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.n);
    return run_cg(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::CgWorkload>(fit_cg_workload(
        samples, base_.outer, base_.inner, 2.0 * base_.offsets + 1.0, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.n); }

 private:
  npb::CgConfig base_;
};

class IsAdapter final : public BenchmarkAdapter {
 public:
  explicit IsAdapter(npb::IsConfig base) : base_(base) {}
  std::string name() const override { return "IS"; }

  std::string fingerprint() const override {
    return "IS;nkeys=" + std::to_string(base_.n_keys) +
           ";bits=" + std::to_string(base_.key_bits) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::IsConfig cfg = base_;
    cfg.n_keys = static_cast<std::uint64_t>(n);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.n_keys);
    return run_is(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::IsWorkload>(fit_is_workload(samples, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.n_keys); }

 private:
  npb::IsConfig base_;
};

class MgAdapter final : public BenchmarkAdapter {
 public:
  explicit MgAdapter(npb::MgConfig base) : base_(base) {}
  std::string name() const override { return "MG"; }

  std::string fingerprint() const override {
    return "MG;nx=" + std::to_string(base_.nx) + ";ny=" + std::to_string(base_.ny) +
           ";nz=" + std::to_string(base_.nz) + ";cycles=" + std::to_string(base_.cycles) +
           ";pre=" + std::to_string(base_.pre_smooth) +
           ";post=" + std::to_string(base_.post_smooth) +
           ";maxlev=" + std::to_string(base_.max_levels) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    const npb::MgConfig cfg = config_for(n, p);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.total_points());
    return run_mg(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::MgWorkload>(fit_mg_workload(samples, base_.cycles, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.total_points()); }

  /// Snaps n to a cubic power-of-two grid with nz/p >= 2, and pins the level
  /// hierarchy so predictions stay comparable across p.
  npb::MgConfig config_for(double n, int p) const {
    npb::MgConfig cfg = base_;
    int side = 8;
    while (static_cast<double>(side) * side * side * 8.0 <= n && side < 1024) side *= 2;
    if (n > 0 && std::log2(n) - 3.0 * std::log2(side) > 1.5) side *= 2;
    while (side < 2 * p) side *= 2;  // slab constraint nz/p >= 2
    cfg.nx = cfg.ny = cfg.nz = side;
    if (cfg.max_levels == 0) cfg.max_levels = 3;
    return cfg;
  }

 private:
  npb::MgConfig base_;
};

class CkptAdapter final : public BenchmarkAdapter {
 public:
  explicit CkptAdapter(npb::CkptConfig base) : base_(base) {}
  std::string name() const override { return "CKPT"; }

  std::string fingerprint() const override {
    return "CKPT;elements=" + std::to_string(base_.elements) +
           ";iterations=" + std::to_string(base_.iterations) +
           ";every=" + std::to_string(base_.ckpt_every) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::CkptConfig cfg = base_;
    cfg.elements = static_cast<std::uint64_t>(n);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.elements);
    return run_ckpt(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::CkptWorkload>(
        fit_ckpt_workload(samples, base_.iterations, base_.ckpt_every, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.elements); }

 private:
  npb::CkptConfig base_;
};

class SweepAdapter final : public BenchmarkAdapter {
 public:
  explicit SweepAdapter(npb::SweepConfig base) : base_(base) {}
  std::string name() const override { return "SWEEP"; }

  std::string fingerprint() const override {
    return "SWEEP;nx=" + std::to_string(base_.nx) + ";ny=" + std::to_string(base_.ny) +
           ";sweeps=" + std::to_string(base_.sweeps) +
           ";tile=" + std::to_string(base_.tile_w) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    // Square grid with side a multiple of tile_w and >= p rows.
    npb::SweepConfig cfg = base_;
    int side = cfg.tile_w;
    while (static_cast<double>(side + cfg.tile_w) * (side + cfg.tile_w) <= n) {
      side += cfg.tile_w;
    }
    while (side < p) side += cfg.tile_w;
    cfg.nx = cfg.ny = side;
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.total_cells());
    return run_sweep(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::SweepWorkload>(
        fit_sweep_workload(samples, base_.sweeps, base_.tile_w, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.total_cells()); }

 private:
  npb::SweepConfig base_;
};

}  // namespace

std::unique_ptr<BenchmarkAdapter> make_ep_adapter(npb::EpConfig base) {
  return std::make_unique<EpAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_ft_adapter(npb::FtConfig base) {
  return std::make_unique<FtAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_cg_adapter(npb::CgConfig base) {
  return std::make_unique<CgAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_is_adapter(npb::IsConfig base) {
  return std::make_unique<IsAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_mg_adapter(npb::MgConfig base) {
  return std::make_unique<MgAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_ckpt_adapter(npb::CkptConfig base) {
  return std::make_unique<CkptAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_sweep_adapter(npb::SweepConfig base) {
  return std::make_unique<SweepAdapter>(base);
}

namespace {

/// An app's stock model: one immutable instance per workload type.
template <class Workload>
std::shared_ptr<const model::WorkloadModel> stock() {
  static const auto w = std::make_shared<const Workload>();
  return w;
}

constexpr AppInfo kApps[] = {
    {"EP", [] { return make_ep_adapter(); }, &stock<model::EpWorkload>, false},
    {"FT", [] { return make_ft_adapter(); }, &stock<model::FtWorkload>, true},
    {"CG", [] { return make_cg_adapter(); }, &stock<model::CgWorkload>, false},
    {"IS", [] { return make_is_adapter(); }, &stock<model::IsWorkload>, false},
    {"MG", [] { return make_mg_adapter(); }, nullptr, true},
    {"CKPT", [] { return make_ckpt_adapter(); }, nullptr, false},
    {"SWEEP", [] { return make_sweep_adapter(); }, nullptr, false},
};

}  // namespace

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
                         bool measured_calibration, exec::ExecConfig exec)
    : machine_(std::move(machine)),
      adapter_(std::move(adapter)),
      exec_(std::move(exec)),
      cache_(std::make_unique<exec::ResultCache>(exec_.cache_dir, exec_.cache_max_bytes)) {
  // The microbenchmark pass itself runs simulations, so it is cached too —
  // otherwise a "warm" figure rerun would still simulate its calibration.
  machine_params_ = decode_machine_params(
      run_case(machine_params_case(machine_, measured_calibration), "machine calibration"));
}

exec::BatchOptions EnergyStudy::batch_options() const {
  exec::BatchOptions batch;
  batch.thread_budget = exec_.jobs;
  batch.cache = cache_->enabled() ? cache_.get() : nullptr;
  return batch;
}

std::string EnergyStudy::run_case(exec::Case c, const char* what) const {
  std::vector<exec::Case> cases;
  cases.push_back(std::move(c));
  std::vector<exec::CaseResult> results = exec::run_batch(cases, batch_options());
  if (!results[0].ok()) {
    throw std::runtime_error(std::string(what) + " failed: " + results[0].error);
  }
  return std::move(results[0].payload);
}

void EnergyStudy::calibrate(std::span<const double> ns, std::span<const int> ps) {
  // Each calibration point is an independent simulation, so they run as a
  // batch on the executor pool (and are individually cacheable).
  const std::vector<exec::CaseResult> results =
      exec::run_batch(calibration_cases(machine_, adapter_, ns, ps), batch_options());
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
  const std::vector<exec::CaseResult> results = exec::run_batch(cases, batch_options());
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
