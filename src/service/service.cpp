#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "analysis/policy.hpp"
#include "analysis/study.hpp"
#include "benchtools/calibrate.hpp"
#include "model/isocontour.hpp"
#include "model/model.hpp"
#include "model/serialize.hpp"
#include "obs/drift.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "util/log.hpp"

namespace isoee::service {

namespace {

struct ServiceMetrics {
  obs::Counter& requests = obs::metrics().counter("service.requests");
  obs::Counter& errors = obs::metrics().counter("service.errors");
  obs::Counter& tier_model = obs::metrics().counter("service.tier_model");
  obs::Counter& tier_cache = obs::metrics().counter("service.tier_cache");
  obs::Counter& tier_sim = obs::metrics().counter("service.tier_sim");
  obs::Counter& coalesced = obs::metrics().counter("service.coalesced");
  obs::Counter& rejected = obs::metrics().counter("service.rejected");
  obs::Histogram& latency_model_s =
      obs::metrics().histogram("service.latency_model_s", obs::default_time_buckets_s());
  obs::Histogram& latency_cache_s =
      obs::metrics().histogram("service.latency_cache_s", obs::default_time_buckets_s());
  obs::Histogram& latency_sim_s =
      obs::metrics().histogram("service.latency_sim_s", obs::default_time_buckets_s());

  static ServiceMetrics& get() {
    static ServiceMetrics m;
    return m;
  }
};

[[noreturn]] void fail(ErrorCode code, const std::string& message) {
  throw RequestError(code, message);
}

sim::MachineSpec spec_for(const std::string& name) {
  try {
    return sim::machine_preset(name);
  } catch (const std::invalid_argument& e) {
    fail(ErrorCode::kUnknownMachine, e.what());
  }
}

const analysis::AppInfo& app_for(const std::string& name) {
  if (const analysis::AppInfo* app = analysis::find_app(name)) return *app;
  std::string have;
  for (const analysis::AppInfo& app : analysis::app_table()) {
    have += (have.empty() ? "" : ", ") + std::string(app.name);
  }
  fail(ErrorCode::kUnknownApp, "unknown app '" + name + "' (have: " + have + ")");
}

/// Apps flagged pow2_p (FT, MG) decompose on power-of-two grids; any other p
/// would make the backing simulation throw, so it is rejected up front as a
/// client error.
void require_valid_sim_point(const analysis::AppInfo& app, const sim::MachineSpec& spec,
                             int p) {
  if (p > spec.total_cores()) {
    fail(ErrorCode::kInvalidParams, "p exceeds " + spec.name + "'s " +
                                        std::to_string(spec.total_cores()) + " cores");
  }
  if (app.pow2_p && (p < 1 || (p & (p - 1)) != 0)) {
    fail(ErrorCode::kInvalidParams,
         "app '" + std::string(app.name) + "' requires a power-of-two p");
  }
}

std::string json_field(const char* key, double v) {
  return std::string("\"") + key + "\":" + json_num(v);
}

/// Appends `"k1":v1,"k2":v2,...` (json_num values) to a reply being built in
/// place, with no per-field temporaries.
void append_fields(std::string& out,
                   std::initializer_list<std::pair<const char*, double>> fields) {
  bool first = true;
  for (const auto& [key, v] : fields) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    append_json_num(out, v);
  }
}

std::string json_field(const char* key, std::uint64_t v) {
  return std::string("\"") + key + "\":" + std::to_string(v);
}

/// Power-of-two processor counts 2..cap (the default search grid for the
/// optimize / iso_contour sweeps when the request names no `ps`).
std::vector<int> pow2_ps(int cap) {
  std::vector<int> ps;
  for (int p = 2; p <= cap; p *= 2) ps.push_back(p);
  if (ps.empty()) ps.push_back(1);
  return ps;
}

double host_now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      executor_({config_.jobs, config_.cache_dir, config_.cache_max_bytes}) {}

Service::~Service() = default;

std::string Service::run_job(const std::vector<exec::Case>& cases, const Fold& fold,
                             std::string* tier, bool* coalesced) {
  ServiceMetrics& metrics = ServiceMetrics::get();
  if (pending_.fetch_add(1) >= config_.max_pending) {
    --pending_;
    metrics.rejected.inc();
    fail(ErrorCode::kOverloaded, "simulation queue is full; retry later");
  }
  exec::BatchStats stats;
  std::vector<exec::CaseResult> results;
  try {
    results = executor_.run(cases, &stats);
  } catch (...) {
    --pending_;
    throw;
  }
  --pending_;
  *coalesced = stats.joined > 0;
  if (*coalesced) metrics.coalesced.inc();
  const bool simulated = std::any_of(results.begin(), results.end(), [](const auto& r) {
    return !r.from_cache;
  });
  *tier = simulated ? "sim" : "cache";
  try {
    return fold(results);
  } catch (const std::exception& e) {
    fail(ErrorCode::kSimFailed, e.what());
  }
}

std::string Service::handle_line(const std::string& line) {
  ServiceMetrics& metrics = ServiceMetrics::get();
  metrics.requests.inc();
  const double t0 = host_now_s();
  std::string id_json = "null";
  std::string method = "?";
  std::string tier = "model";
  std::string response;
  try {
    const Request req = parse_request(line, &id_json);
    id_json = req.id_json;
    bool coalesced = false;
    std::string fragment;
    switch (req.method) {
      case Method::kPredict:
        method = "predict";
        fragment = handle_predict(req, &tier, &coalesced);
        break;
      case Method::kCalibrate:
        method = "calibrate";
        fragment = handle_calibrate(req, &tier, &coalesced);
        break;
      case Method::kOptimize:
        method = "optimize";
        fragment = handle_optimize(req);
        break;
      case Method::kIsoContour:
        method = "iso_contour";
        fragment = handle_iso_contour(req);
        break;
      case Method::kInstall:
        method = "install";
        fragment = handle_install(req);
        break;
      case Method::kStats:
        method = "stats";
        fragment = handle_stats();
        break;
      case Method::kMetrics:
        method = "metrics";
        fragment = handle_metrics();
        break;
      case Method::kShutdown:
        method = "shutdown";
        shutdown_.store(true);
        fragment = "{\"stopping\":true}";
        break;
    }
    response = render_ok(id_json, tier, coalesced, fragment);
    if (tier == "model") {
      metrics.tier_model.inc();
    } else if (tier == "cache") {
      metrics.tier_cache.inc();
    } else {
      metrics.tier_sim.inc();
    }
  } catch (const RequestError& e) {
    metrics.errors.inc();
    tier = "error";
    response = render_error(id_json, e.code(), e.what());
  } catch (const std::exception& e) {
    metrics.errors.inc();
    tier = "error";
    response = render_error(id_json, ErrorCode::kInternal, e.what());
  }

  const double dur = host_now_s() - t0;
  if (tier == "sim") {
    metrics.latency_sim_s.observe(dur);
  } else if (tier == "cache") {
    metrics.latency_cache_s.observe(dur);
  } else if (tier == "model") {
    metrics.latency_model_s.observe(dur);
  }
  // Per-method × per-tier latency ("error" counts as a tier here: failed
  // requests should not pollute the success distributions). The name lookup
  // takes the registry mutex, which is fine at request granularity.
  obs::metrics()
      .histogram("service.latency_s." + method + "." + tier,
                 obs::default_time_buckets_s())
      .observe(dur);
  if (config_.slow_request_s > 0.0 && dur > config_.slow_request_s) {
    ISOEE_WARN("service: slow request method=%s tier=%s dur_ms=%.3f id=%s",
               method.c_str(), tier.c_str(), dur * 1e3, id_json.c_str());
  }
  // Service spans run on *host* time (there is no virtual clock spanning
  // requests); they land under cat "service" so trace tooling can tell them
  // apart from the simulators' virtual-time spans.
  if (obs::TraceSink* sink = obs::global_sink()) {
    obs::emit_span(*sink, 0, "service", method, t0, dur, {obs::arg_str("tier", tier)});
  }
  return response;
}

Service::Calibration Service::resolve_model(const Request& req) const {
  const sim::MachineSpec spec = spec_for(req.machine);
  const analysis::AppInfo& app = app_for(req.app);
  if (req.calibrated) {
    std::lock_guard<std::mutex> lock(cal_mu_);
    const auto it = calibrations_.find(spec.name + '\x1f' + req.app);
    if (it == calibrations_.end()) {
      fail(ErrorCode::kNotCalibrated,
           "no calibration for (" + req.machine + ", " + req.app + "); call calibrate first");
    }
    return it->second;
  }
  Calibration cal;
  cal.machine = tools::nominal_machine_params(spec);
  if (app.stock_model != nullptr) cal.workload = app.stock_model();
  if (cal.workload == nullptr) {
    fail(ErrorCode::kNotCalibrated,
         "app '" + req.app + "' ships no stock model; calibrate it, then pass calibrated:true");
  }
  return cal;
}

void Service::install(const sim::MachineSpec& spec, const std::string& app,
                      const model::MachineParams& machine,
                      std::unique_ptr<model::WorkloadModel> workload) {
  std::lock_guard<std::mutex> lock(cal_mu_);
  calibrations_[spec.name + '\x1f' + app] = Calibration{machine, std::move(workload)};
}

std::string Service::handle_predict(const Request& req, std::string* tier, bool* coalesced) {
  if (!req.measured) {
    const Calibration cal = resolve_model(req);
    const double f = req.f_ghz > 0.0 ? req.f_ghz : cal.machine.base_ghz;
    const model::IsoEnergyModel m(cal.machine.at_frequency(f));
    const model::AppParams app = cal.workload->at(req.n, req.p);
    const model::PerfPrediction perf = m.predict_performance(app);
    const model::EnergyPrediction energy = m.predict_energy(app);
    std::string out;
    out.reserve(384);
    out += '{';
    append_fields(out, {{"n", req.n},
                        {"p", double(req.p)},
                        {"f_ghz", f},
                        {"T1", perf.T1},
                        {"Tp", perf.Tp},
                        {"T_net", perf.T_net},
                        {"speedup", perf.speedup},
                        {"perf_efficiency", perf.perf_efficiency},
                        {"E1", energy.E1},
                        {"Ep", energy.Ep},
                        {"Eo", energy.Eo},
                        {"EEF", energy.EEF},
                        {"EE", energy.EE}});
    out += '}';
    return out;
  }

  // Measured tier: one full simulation on the executor (admission-controlled,
  // joined onto an identical run in flight, answered from a warm cache).
  const sim::MachineSpec spec = spec_for(req.machine);
  const analysis::AppInfo& app = app_for(req.app);
  require_valid_sim_point(app, spec, req.p);
  const double f = req.f_ghz > 0.0 ? req.f_ghz : spec.cpu.base_ghz;
  std::vector<exec::Case> cases;
  cases.push_back(analysis::measure_case(spec, app.make_adapter(), req.n, req.p, f));
  const std::string payload = run_job(
      cases,
      [](const std::vector<exec::CaseResult>& results) {
        if (!results[0].ok()) throw std::runtime_error(results[0].error);
        return results[0].payload;
      },
      tier, coalesced);
  const analysis::Measurement actual = analysis::decode_measurement(payload);

  // A measured request is the one place a live service produces both a
  // closed-form prediction and a simulated actual for the same operating
  // point — feed the pair to the drift watchdog when a model is resolvable
  // (cache-tier answers included: the model may have drifted since the
  // simulation was cached).
  try {
    const Calibration cal = resolve_model(req);
    const model::IsoEnergyModel m(cal.machine.at_frequency(f));
    const model::AppParams app = cal.workload->at(actual.n, req.p);
    const model::PerfPrediction perf = m.predict_performance(app);
    const model::EnergyPrediction energy = m.predict_energy(app);
    obs::drift().record({req.machine, req.app, req.p, f, "energy_j"}, energy.Ep,
                        actual.energy_j);
    obs::drift().record({req.machine, req.app, req.p, f, "time_s"}, perf.Tp, actual.time_s);
  } catch (const RequestError&) {
    // No stock or fitted model for this app: nothing to compare against.
  }

  return "{" + json_field("n", actual.n) + "," + json_field("p", double(req.p)) + "," +
         json_field("f_ghz", f) + "," + json_field("energy_j", actual.energy_j) + "," +
         json_field("time_s", actual.time_s) + "," + json_field("alpha", actual.alpha) + "}";
}

std::string Service::handle_calibrate(const Request& req, std::string* tier, bool* coalesced) {
  const sim::MachineSpec spec = spec_for(req.machine);
  const analysis::AppInfo& app = app_for(req.app);
  std::shared_ptr<const analysis::BenchmarkAdapter> adapter = app.make_adapter();

  std::vector<double> ns = req.ns;
  if (ns.empty()) {
    const double d = adapter->default_n();
    ns = {d / 4.0, d / 2.0, d};
  }
  std::vector<int> ps = req.ps;
  if (ps.empty()) ps = {2, 4};
  for (int p : ps) require_valid_sim_point(app, spec, p);

  // Case 0 is the microbenchmark machine-vector pass; the rest are the
  // calibration points. Each case carries analysis's cache key, so the
  // service and EnergyStudy share warm entries.
  std::vector<exec::Case> cases = analysis::calibration_cases(spec, adapter, ns, ps);
  cases.insert(cases.begin(), analysis::machine_params_case(spec, true));
  const std::size_t samples = cases.size() - 1;

  const std::string payload = run_job(
      cases,
      [adapter](const std::vector<exec::CaseResult>& results) -> std::string {
        for (const exec::CaseResult& r : results) {
          if (!r.ok()) throw std::runtime_error("calibration case failed: " + r.error);
        }
        const model::MachineParams mp = analysis::decode_machine_params(results[0].payload);
        const std::unique_ptr<model::WorkloadModel> workload = analysis::fit_calibration(
            *adapter, std::span(results).subspan(1), mp.t_m);
        // \x1e separates the two [section] documents (never appears in them).
        return model::serialize(mp) + '\x1e' + model::serialize(*workload);
      },
      tier, coalesced);

  const std::size_t sep = payload.find('\x1e');
  if (sep == std::string::npos) fail(ErrorCode::kInternal, "calibration payload: no separator");
  const std::string machine_text = payload.substr(0, sep);
  const std::string workload_text = payload.substr(sep + 1);
  const std::optional<model::MachineParams> mp = model::parse_machine(machine_text);
  std::unique_ptr<model::WorkloadModel> workload = model::parse_workload(workload_text);
  if (!mp || workload == nullptr) {
    fail(ErrorCode::kInternal, "calibration payload: unparsable");
  }

  install(spec, req.app, *mp, std::move(workload));
  ISOEE_INFO("service: calibrated (%s, %s) from %zu points", req.machine.c_str(),
             req.app.c_str(), samples);

  return std::string("{\"machine\":\"") + req.machine + "\",\"app\":\"" + req.app + "\"," +
         json_field("samples", static_cast<std::uint64_t>(samples)) +
         ",\"machine_params\":\"" + obs::json_escape(machine_text) + "\",\"workload\":\"" +
         obs::json_escape(workload_text) + "\"}";
}

std::string Service::handle_optimize(const Request& req) {
  const Calibration cal = resolve_model(req);
  const sim::MachineSpec spec = spec_for(req.machine);
  const double f = req.f_ghz > 0.0 ? req.f_ghz : cal.machine.base_ghz;
  const std::vector<double>& gears = spec.cpu.gears_ghz;
  const std::vector<int> ps =
      req.ps.empty() ? pow2_ps(std::min(spec.total_cores(), 1024)) : req.ps;

  const std::string head = std::string("{\"objective\":\"") + req.objective + "\"," +
                           json_field("n", req.n) + ",";
  if (req.objective == "max_p") {
    const int p = model::max_processors(cal.machine, *cal.workload, req.n, f,
                                        req.target_ee, req.p_max);
    const double ee = model::ee_at(cal.machine, *cal.workload, req.n, p, f);
    return head + json_field("p", double(p)) + "," + json_field("f_ghz", f) + "," +
           json_field("target_ee", req.target_ee) + "," + json_field("ee", ee) + "}";
  }
  if (req.objective == "best_f_ee" || req.objective == "best_f_energy") {
    const double best =
        req.objective == "best_f_ee"
            ? model::best_frequency_for_ee(cal.machine, *cal.workload, req.n, req.p, gears)
            : model::best_frequency_for_energy(cal.machine, *cal.workload, req.n, req.p,
                                               gears);
    const model::IsoEnergyModel m(cal.machine.at_frequency(best));
    const model::EnergyPrediction energy =
        m.predict_energy(cal.workload->at(req.n, req.p));
    return head + json_field("p", double(req.p)) + "," + json_field("f_ghz", best) + "," +
           json_field("energy_j", energy.Ep) + "," + json_field("ee", energy.EE) + "}";
  }

  const analysis::PolicyChoice choice =
      req.objective == "min_time_under_cap"
          ? analysis::best_under_power_cap(cal.machine, *cal.workload, req.n, ps, gears,
                                           req.cap_w)
          : analysis::best_energy_under_deadline(cal.machine, *cal.workload, req.n, ps,
                                                 gears, req.deadline_s);
  return head + json_field("p", double(choice.p)) + "," +
         json_field("f_ghz", choice.f_ghz) + "," + json_field("time_s", choice.time_s) +
         "," + json_field("energy_j", choice.energy_j) + "," +
         json_field("avg_power_w", choice.avg_power_w) + "," +
         json_field("ee", choice.ee) + ",\"feasible\":" +
         (choice.feasible ? "true" : "false") + "}";
}

std::string Service::handle_iso_contour(const Request& req) {
  const Calibration cal = resolve_model(req);
  const sim::MachineSpec spec = spec_for(req.machine);
  const double f = req.f_ghz > 0.0 ? req.f_ghz : cal.machine.base_ghz;
  const std::vector<int> ps =
      req.ps.empty() ? pow2_ps(std::min(spec.total_cores(), 256)) : req.ps;
  const std::vector<model::ContourPoint> contour = model::iso_ee_contour(
      cal.machine, *cal.workload, req.target_ee, ps, f, req.n_lo, req.n_hi);

  std::string out;
  out.reserve(64 + 73 * contour.size());  // a point prints in at most 73 bytes
  out += '{';
  append_fields(out, {{"target_ee", req.target_ee}, {"f_ghz", f}});
  out += ",\"points\":[";
  for (std::size_t i = 0; i < contour.size(); ++i) {
    out += i == 0 ? "{" : ",{";
    const model::ContourPoint& pt = contour[i];
    append_fields(out, {{"p", double(pt.p)}, {"n", pt.n}, {"ee", pt.ee}});
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Service::handle_install(const Request& req) {
  const sim::MachineSpec spec = spec_for(req.machine);
  app_for(req.app);
  const std::optional<model::MachineParams> mp = model::parse_machine(req.machine_params);
  if (!mp) fail(ErrorCode::kInvalidParams, "param 'machine_params' is not parsable");
  std::unique_ptr<model::WorkloadModel> workload = model::parse_workload(req.workload);
  if (workload == nullptr) fail(ErrorCode::kInvalidParams, "param 'workload' is not parsable");

  install(spec, req.app, *mp, std::move(workload));
  ISOEE_INFO("service: installed calibration for (%s, %s)", req.machine.c_str(),
             req.app.c_str());
  return std::string("{\"machine\":\"") + req.machine + "\",\"app\":\"" + req.app +
         "\",\"installed\":true}";
}

std::string Service::handle_metrics() {
  // One compact JSON object per the line-protocol contract: responses are
  // single lines, so this re-renders the snapshot without the pretty-printed
  // newlines write_json uses.
  std::string out = "{";
  const auto snap = obs::metrics().snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::json_quote(snap[i].name);
    out += ":{\"kind\":\"";
    out += snap[i].kind;
    out += "\",\"value\":";
    out += snap[i].value;
    out += '}';
  }
  return out + "}";
}

std::string Service::handle_stats() {
  const ServiceMetrics& m = ServiceMetrics::get();
  const exec::ResultCache& cache = executor_.cache();
  return "{" + json_field("runs_started", sim::Engine::total_runs_started()) + "," +
         json_field("requests", m.requests.value()) + "," +
         json_field("errors", m.errors.value()) + "," +
         json_field("tier_model", m.tier_model.value()) + "," +
         json_field("tier_cache", m.tier_cache.value()) + "," +
         json_field("tier_sim", m.tier_sim.value()) + "," +
         json_field("coalesced", m.coalesced.value()) + "," +
         json_field("rejected", m.rejected.value()) +
         "," + json_field("cache_hits", cache.hits()) + "," +
         json_field("cache_misses", cache.misses()) + "," +
         json_field("cache_stores", cache.stores()) + "," +
         json_field("cache_pruned", cache.pruned()) + "," +
         // Fiber-engine throughput (rank-scale rearchitecture): totals over
         // every simulation this process ran, plus the most recent run's
         // simulated-rank-seconds per host second.
         json_field("engine_ranks_simulated",
                    obs::metrics().counter("engine.ranks_simulated").value()) +
         "," +
         json_field("engine_events_processed",
                    obs::metrics().counter("engine.events_processed").value()) +
         "," +
         json_field("engine_rank_seconds_per_sec",
                    obs::metrics().gauge("engine.rank_seconds_per_sec").value()) +
         "," +
         // Model-drift watchdog (obs::DriftMonitor): degraded while any
         // (machine, app, p, gear, quantity) key's EWMA |relative error|
         // exceeds the configured threshold after min_samples pairs.
         std::string("\"model_health\":\"") +
         (obs::drift().degraded() ? "degraded" : "ok") + "\"," +
         json_field("drift_samples",
                    obs::metrics().counter("drift.samples").value()) +
         "," +
         json_field("drift_degraded_keys",
                    static_cast<std::uint64_t>(obs::drift().degraded_count())) +
         "," +
         json_field("drift_max_ewma_abs_err",
                    obs::metrics().gauge("drift.max_ewma_abs_err").value()) +
         "}";
}

}  // namespace isoee::service
