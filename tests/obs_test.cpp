// Tests of the observability layer (src/obs) and its integrations: metrics
// registry semantics, deterministic Chrome-trace export (byte-identical
// across reruns and --jobs values), trace round-trip through the
// benchtools loader, and energy attribution consistency between trace_stats
// and powerpack::summarize_phases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <span>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "analysis/study.hpp"
#include "benchtools/tracestats.hpp"
#include "exec/executor.hpp"
#include "governor/governor.hpp"
#include "governor/policies.hpp"
#include "npb/classes.hpp"
#include "obs/drift.hpp"
#include "obs/obs.hpp"
#include "obs/sched_profiler.hpp"
#include "powerpack/phases.hpp"
#include "powerpack/profiler.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

using namespace isoee;

namespace {

sim::MachineSpec quiet_machine() {
  auto m = sim::system_g();
  m.noise.enabled = false;
  return m;
}

sim::MachineSpec noisy_machine(std::uint64_t seed = 42) {
  auto m = sim::system_g();
  m.noise.enabled = true;
  m.noise.seed = seed;
  return m;
}

/// One traced FT run: per-engine collector, phases marked, trace rendered.
struct TracedFt {
  sim::RunResult result;
  std::string json;
};

TracedFt traced_ft(const sim::MachineSpec& machine, int p,
                   governor::Governor* governor = nullptr, double f_ghz = 0.0) {
  obs::TraceCollector collector;
  powerpack::PhaseLog phases;
  analysis::RunOptions options;
  options.record_trace = true;
  options.phases = &phases;
  options.trace = &collector;
  options.governor = governor;
  options.f_ghz = f_ghz;
  const auto config = npb::ft_class(npb::ProblemClass::S);
  TracedFt out;
  out.result = analysis::run_ft(machine, config, p, options);
  out.json = obs::ChromeTraceWriter::render(collector.sorted(),
                                            {{"machine", machine.name}});
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

// --- metrics ---------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("t.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);

  auto& g = reg.gauge("t.gauge");
  g.set(2.5);
  g.set_max(1.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);

  auto& h = reg.histogram("t.hist", std::vector<double>{1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // +inf bucket

  // Same name returns the same object; histogram bounds must agree.
  EXPECT_EQ(&c, &reg.counter("t.count"));
  EXPECT_EQ(&h, &reg.histogram("t.hist", {}));
  EXPECT_THROW(reg.histogram("t.hist", std::vector<double>{1.0}), std::exception);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // references survive reset
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, SnapshotIsSortedAndSerializes) {
  obs::MetricsRegistry reg;
  reg.counter("b.second").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("c.third").set(1.5);
  const auto snap = reg.snapshot();
  ASSERT_GE(snap.size(), 3u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }

  // write_json writes render_json() and a newline.
  const std::string json_path = temp_path("obs_metrics_test.json");
  ASSERT_TRUE(reg.write_json(json_path));
  EXPECT_EQ(slurp(json_path), reg.render_json() + "\n");
  std::remove(json_path.c_str());
}

TEST(Metrics, RenderJsonIsOneLineThatParsesToTheSnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("a.first").inc(1);
  reg.gauge("c.third").set(1.5);
  reg.histogram("h", std::vector<double>{1.0}).observe(0.5);
  const std::string json = reg.render_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);

  // One (name -> kind, value) map, read either way.
  std::map<std::string, std::pair<std::string, double>> want, got;
  for (const auto& s : reg.snapshot()) want[s.name] = {s.kind, std::stod(s.value)};
  const auto doc = util::parse_json(json);
  ASSERT_TRUE(doc.is(util::JsonValue::Type::kObject));
  for (const auto& [name, row] : doc.object) {
    got[name] = {row.find("kind")->str, row.find("value")->number};
  }
  EXPECT_EQ(got, want);

  // Snapshot order, compact, bucket labels escaped.
  EXPECT_EQ(json,
            R"({"a.first":{"kind":"counter","value":1},)"
            R"("c.third":{"kind":"gauge","value":1.5},)"
            R"("h_bucket{le=\"+Inf\"}":{"kind":"histogram","value":1},)"
            R"("h_bucket{le=\"1\"}":{"kind":"histogram","value":1},)"
            R"("h_count":{"kind":"histogram","value":1},)"
            R"("h_sum":{"kind":"histogram","value":0.5}})");
}

TEST(Metrics, EngineRunsFeedTheGlobalRegistry) {
  auto& runs = obs::metrics().counter("sim.runs_started");
  auto& msgs = obs::metrics().counter("sim.messages_sent");
  const auto runs_before = runs.value();
  const auto msgs_before = msgs.value();

  sim::Engine engine(quiet_machine());
  const auto result = engine.run(2, [](sim::RankCtx& ctx) {
    std::vector<std::byte> buf(64);
    if (ctx.rank() == 0) {
      ctx.send_bytes(1, 0, buf);
    } else {
      ctx.recv(0, 0, std::span<std::byte>(buf));
    }
    ctx.compute(1000);
  });

  EXPECT_EQ(runs.value(), runs_before + 1);
  EXPECT_EQ(msgs.value() - msgs_before, result.counters.messages_sent);
}

TEST(Metrics, EngineCountersAreListedBeforeAnyRun) {
  // A process that starts no simulation (a warm-cache rerun) must still
  // report the engine's counters, at 0, so gates can require the keys.
  // ctest runs this test in its own process, where no engine has run.
  std::map<std::string, std::string> rows;
  for (const auto& s : obs::metrics().snapshot()) rows[s.name] = s.value;
  for (const char* name : {"sim.runs_started", "sim.messages_sent", "engine.events_processed"}) {
    ASSERT_TRUE(rows.contains(name)) << name;
  }
  EXPECT_EQ(rows["sim.runs_started"], std::to_string(sim::Engine::total_runs_started()));
}

TEST(Metrics, SnapshotSchemaIsStable) {
  // The snapshot row schema is load-bearing: bench CSV diffs, the service's
  // `metrics` endpoint, and service_test's latency-histogram checks all parse
  // these names. A histogram with bounds {0.5, 2} must produce exactly these
  // rows, in exactly this (lexicographic) order, with cumulative bucket counts.
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("h", std::vector<double>{0.5, 2.0});
  h.observe(0.25);  // le 0.5
  h.observe(1.0);   // le 2
  h.observe(9.0);   // +Inf
  reg.counter("h.extra").inc();

  const auto snap = reg.snapshot();
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& s : snap) rows.emplace_back(s.name, s.value);
  const std::vector<std::pair<std::string, std::string>> want = {
      {"h.extra", "1"},
      {"h_bucket{le=\"+Inf\"}", "3"},
      {"h_bucket{le=\"0.5\"}", "1"},
      {"h_bucket{le=\"2\"}", "2"},
      {"h_count", "3"},
      {"h_sum", "10.25"},
  };
  EXPECT_EQ(rows, want);
}

TEST(Metrics, PrometheusRenderIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("sim.runs_started").inc(3);
  reg.gauge("engine.rank_seconds_per_sec").set(1.5);
  reg.histogram("service.latency_s.predict.model", std::vector<double>{0.001})
      .observe(0.0005);
  const std::string text = reg.render_prometheus();

  // Dotted names sanitize to underscores; every family gets a # TYPE line;
  // histogram rows follow the le-label convention; the exposition terminates
  // with the OpenMetrics EOF marker.
  EXPECT_NE(text.find("# TYPE sim_runs_started counter\n"), std::string::npos);
  EXPECT_NE(text.find("sim_runs_started 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE engine_rank_seconds_per_sec gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE service_latency_s_predict_model histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("service_latency_s_predict_model_bucket{le=\"0.001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("service_latency_s_predict_model_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("service_latency_s_predict_model_count 1\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

  // Every non-comment line is `name{labels} value` over the Prometheus
  // charset — the shape the CI scrape smoke asserts too.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    for (const char ch : name.substr(0, name.find('{'))) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' || ch == ':')
          << line;
    }
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

// --- drift watchdog ---------------------------------------------------------

TEST(Drift, CalibratedErrorsStayHealthy) {
  // ~5% model-vs-sim disagreement (the paper's validated envelope) must never
  // trip the watchdog, no matter how many samples accumulate.
  obs::DriftMonitor mon;
  const obs::DriftKey key{"system_g", "FT", 16, 2.0, "energy_j"};
  for (int i = 0; i < 100; ++i) {
    const double actual = 10.0;
    const double predicted = actual * (i % 2 == 0 ? 1.05 : 0.95);
    mon.record(key, predicted, actual);
  }
  EXPECT_FALSE(mon.degraded());
  EXPECT_EQ(mon.degraded_count(), 0u);
  const auto snap = mon.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].samples, 100u);
  EXPECT_NEAR(snap[0].ewma_abs, 0.05, 1e-12);
  EXPECT_FALSE(snap[0].degraded);
}

TEST(Drift, MisCalibratedMachineTrips) {
  // A +30% systematic prediction error — the mis-calibration the drift e2e
  // test injects via a perturbed gamma — trips the key exactly when it
  // reaches min_samples, and only that key.
  obs::DriftMonitor mon;
  const obs::DriftKey bad{"system_g", "EP", 8, 0.0, "energy_j"};
  const obs::DriftKey good{"dori", "CG", 8, 0.0, "energy_j"};
  const auto min_samples = mon.config().min_samples;
  for (std::uint64_t i = 0; i < min_samples; ++i) {
    EXPECT_FALSE(mon.degraded()) << "tripped before min_samples at " << i;
    mon.record(bad, 13.0, 10.0);  // e = +0.30 every time
    mon.record(good, 10.1, 10.0);
  }
  EXPECT_TRUE(mon.degraded());
  EXPECT_EQ(mon.degraded_count(), 1u);
  const auto degraded = mon.degraded_keys();
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_TRUE(degraded[0].key == bad);
  EXPECT_NEAR(degraded[0].ewma_abs, 0.30, 1e-12);
  EXPECT_NEAR(degraded[0].ewma_signed, 0.30, 1e-12);
}

TEST(Drift, EwmaSeedsWithFirstSampleThenSmooths) {
  obs::DriftConfig cfg;
  cfg.alpha = 0.25;
  obs::DriftMonitor mon(cfg);
  const obs::DriftKey key{"m", "a", 1, 0.0, "time_s"};
  mon.record(key, 12.0, 10.0);  // e = +0.2 seeds both EWMAs
  auto snap = mon.snapshot();
  EXPECT_NEAR(snap[0].ewma_signed, 0.2, 1e-12);
  EXPECT_NEAR(snap[0].ewma_abs, 0.2, 1e-12);

  mon.record(key, 9.0, 10.0);  // e = -0.1
  snap = mon.snapshot();
  EXPECT_NEAR(snap[0].last_signed, -0.1, 1e-12);
  EXPECT_NEAR(snap[0].ewma_signed, 0.25 * -0.1 + 0.75 * 0.2, 1e-12);
  EXPECT_NEAR(snap[0].ewma_abs, 0.25 * 0.1 + 0.75 * 0.2, 1e-12);
}

TEST(Drift, BadActualsAreSkippedNotRecorded) {
  obs::MetricsRegistry reg;
  obs::DriftMonitor mon(obs::DriftConfig{}, &reg);
  const obs::DriftKey key{"m", "a", 1, 0.0, "time_s"};
  mon.record(key, 1.0, 0.0);
  mon.record(key, 1.0, -5.0);
  mon.record(key, 1.0, std::numeric_limits<double>::quiet_NaN());
  mon.record(key, 1.0, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(mon.snapshot().empty());
  EXPECT_EQ(reg.counter("drift.skipped").value(), 4u);
  EXPECT_EQ(reg.counter("drift.samples").value(), 0u);
}

TEST(Drift, MirrorsStateIntoMetricsRegistry) {
  obs::MetricsRegistry reg;
  obs::DriftMonitor mon(obs::DriftConfig{}, &reg);
  const obs::DriftKey key{"m", "a", 4, 0.0, "energy_j"};
  for (int i = 0; i < 6; ++i) mon.record(key, 14.0, 10.0);  // e = +0.4

  EXPECT_EQ(reg.counter("drift.samples").value(), 6u);
  EXPECT_DOUBLE_EQ(reg.gauge("drift.model_degraded").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("drift.degraded_keys").value(), 1.0);
  EXPECT_NEAR(reg.gauge("drift.max_ewma_abs_err").value(), 0.4, 1e-12);
  // The signed-error histogram put all six samples in the (0.2, 0.5] bucket.
  auto& h = reg.histogram("drift.rel_error", obs::default_rel_error_buckets());
  EXPECT_EQ(h.count(), 6u);

  mon.reset();
  EXPECT_FALSE(mon.degraded());
  EXPECT_DOUBLE_EQ(reg.gauge("drift.model_degraded").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("drift.max_ewma_abs_err").value(), 0.0);
}

TEST(Drift, StudyValidationFeedsTheGlobalMonitor) {
  // EnergyStudy::validate is a built-in feed point: every validation point
  // lands two pairs (energy_j + time_s) on the global monitor, keyed by
  // (machine, benchmark, p, gear). A calibrated study's errors sit well
  // inside the threshold, so the watchdog stays green.
  obs::drift().reset();
  auto spec = sim::system_g();
  spec.noise.enabled = false;
  exec::Executor executor;
  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::EpConfig()),
                              /*measured=*/false, executor);
  const double ns[] = {1 << 15, 1 << 16, 1 << 17};
  const int ps[] = {2, 4};
  study.calibrate(ns, ps);
  (void)study.validate(1 << 18, 2);
  (void)study.validate(1 << 18, 8);

  const auto snap = obs::drift().snapshot();
  ASSERT_EQ(snap.size(), 4u);  // {p=2, p=8} x {energy_j, time_s}
  for (const auto& row : snap) {
    EXPECT_EQ(row.key.machine, spec.name);
    EXPECT_EQ(row.key.app, "EP");
    EXPECT_EQ(row.samples, 1u);
    EXPECT_LT(row.ewma_abs, obs::drift().config().threshold);
  }
  EXPECT_FALSE(obs::drift().degraded());
  obs::drift().reset();
}

// --- scheduler profiler -----------------------------------------------------

namespace {

/// Starts a profiler with an interval long enough that the background sampler
/// never fires during the test; all samples come from the sample_now() seam.
void start_quiet(obs::SchedProfiler& prof) {
  obs::SchedProfiler::Options opts;
  opts.interval_us = 60'000'000;  // one minute
  prof.start(opts);
}

}  // namespace

TEST(SchedProfiler, SampleNowAttributesPerWorkerPhases) {
  obs::SchedProfiler prof;
  start_quiet(prof);
  auto w0 = prof.register_worker(0);
  auto w1 = prof.register_worker(1);
  ASSERT_TRUE(w0.engaged());
  ASSERT_TRUE(w1.engaged());

  w0.set_phase(obs::SchedPhase::kFiberRun, 7);
  w1.set_phase(obs::SchedPhase::kMailboxWait);
  prof.sample_now();
  w0.set_phase(obs::SchedPhase::kHeapDispatch);
  prof.sample_now();
  w0.release();
  prof.sample_now();  // only w1 is active now
  prof.stop();

  EXPECT_EQ(prof.total_samples(), 5u);
  const auto report = prof.report();
  ASSERT_EQ(report.size(), 3u);  // sorted by (worker, phase, rank)
  EXPECT_EQ(report[0].worker, 0);
  EXPECT_EQ(report[0].phase, obs::SchedPhase::kHeapDispatch);
  EXPECT_EQ(report[0].samples, 1u);
  EXPECT_EQ(report[1].phase, obs::SchedPhase::kFiberRun);
  EXPECT_EQ(report[1].rank, 7);
  EXPECT_EQ(report[1].samples, 1u);
  EXPECT_EQ(report[2].worker, 1);
  EXPECT_EQ(report[2].phase, obs::SchedPhase::kMailboxWait);
  EXPECT_EQ(report[2].samples, 3u);

  // Collapsed output round-trips through the benchtools parser + validator.
  const std::string text = prof.collapsed();
  EXPECT_NE(text.find("isoee_engine;worker_0;fiber_run;rank_7 1\n"), std::string::npos);
  EXPECT_NE(text.find("isoee_engine;worker_1;mailbox_wait 3\n"), std::string::npos);
  const auto lines = benchtools::parse_collapsed(text);
  EXPECT_TRUE(benchtools::validate_collapsed(lines).empty());
}

TEST(SchedProfiler, TopRanksFoldIntoRankOther) {
  obs::SchedProfiler prof;
  start_quiet(prof);
  auto w = prof.register_worker(0);
  // Rank 0 gets 3 samples, rank 1 gets 2, ranks 2..4 one each.
  for (int rank = 0; rank < 5; ++rank) {
    w.set_phase(obs::SchedPhase::kFiberRun, rank);
    for (int s = 0; s < (rank == 0 ? 3 : rank == 1 ? 2 : 1); ++s) prof.sample_now();
  }
  w.release();
  prof.stop();

  const std::string text = prof.collapsed(/*top_ranks=*/2);
  EXPECT_NE(text.find(";fiber_run;rank_0 3\n"), std::string::npos);
  EXPECT_NE(text.find(";fiber_run;rank_1 2\n"), std::string::npos);
  EXPECT_NE(text.find(";fiber_run;rank_other 3\n"), std::string::npos);
  EXPECT_EQ(text.find("rank_2"), std::string::npos);
  EXPECT_TRUE(
      benchtools::validate_collapsed(benchtools::parse_collapsed(text)).empty());
}

TEST(SchedProfiler, DisabledProfilerHandlesAreInert) {
  obs::SchedProfiler prof;
  auto w = prof.register_worker(0);  // not enabled: disengaged
  EXPECT_FALSE(w.engaged());
  w.set_phase(obs::SchedPhase::kFiberRun, 3);  // single-branch no-op
  prof.sample_now();
  EXPECT_EQ(prof.total_samples(), 0u);
  EXPECT_TRUE(prof.report().empty());

  obs::SchedProfiler::WorkerHandle defaulted;
  defaulted.set_phase(obs::SchedPhase::kIdle);
  defaulted.release();  // releasing a disengaged handle is fine
}

// --- trace collection and export -------------------------------------------

TEST(Trace, SegmentSpansFlowsAndDvfsInstants) {
  obs::TraceCollector collector;
  sim::EngineOptions opts;
  opts.trace_sink = &collector;
  sim::Engine engine(quiet_machine(), opts);
  const auto gears = engine.machine().cpu.gears_ghz;
  ASSERT_GE(gears.size(), 2u);

  const auto result = engine.run(2, [&gears](sim::RankCtx& ctx) {
    ctx.compute(10000);
    ctx.set_frequency(gears.back());  // lowest gear: a real change
    ctx.compute(10000);
    std::vector<std::byte> buf(256);
    if (ctx.rank() == 0) {
      ctx.send_bytes(1, 7, buf);
    } else {
      ctx.recv(0, 7, std::span<std::byte>(buf));
    }
  });

  std::size_t spans = 0, flow_begins = 0, flow_ends = 0, dvfs = 0;
  for (const auto& e : collector.sorted()) {
    if (e.kind == obs::TraceEvent::Kind::kSpan) ++spans;
    if (e.kind == obs::TraceEvent::Kind::kFlowBegin) ++flow_begins;
    if (e.kind == obs::TraceEvent::Kind::kFlowEnd) ++flow_ends;
    if (e.kind == obs::TraceEvent::Kind::kInstant && e.name == "dvfs") ++dvfs;
  }
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(flow_begins, result.counters.messages_sent);
  EXPECT_EQ(flow_ends, result.counters.messages_received);
  EXPECT_EQ(dvfs, 2u);  // one gear change per rank
  EXPECT_EQ(result.counters.dvfs_transitions, 2u);
}

TEST(Trace, NoSinkMeansNoEventsAndNullRankSink) {
  sim::Engine engine(quiet_machine());
  engine.run(1, [](sim::RankCtx& ctx) {
    EXPECT_EQ(ctx.trace_sink(), nullptr);
    ctx.compute(100);
  });
}

TEST(Trace, CollectiveSpansCarryAlgoBytesAndRanks) {
  obs::TraceCollector collector;
  sim::EngineOptions opts;
  opts.trace_sink = &collector;
  sim::Engine engine(quiet_machine(), opts);
  engine.run(4, [](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    std::vector<double> in(64, 1.0), out(64);
    comm.allreduce_sum(std::span<const double>(in), std::span<double>(out));
  });

  std::size_t allreduce_spans = 0;
  for (const auto& e : collector.sorted()) {
    if (e.kind != obs::TraceEvent::Kind::kSpan || e.cat != "smpi") continue;
    EXPECT_EQ(e.name, "allreduce");
    ++allreduce_spans;
    bool saw_algo = false, saw_bytes = false, saw_p = false;
    for (const auto& arg : e.args) {
      if (arg.key == "algo") {
        saw_algo = true;
        EXPECT_EQ(arg.json, "\"recursive_doubling\"");
      }
      if (arg.key == "bytes") {
        saw_bytes = true;
        EXPECT_EQ(arg.json, std::to_string(64 * sizeof(double)));
      }
      if (arg.key == "p") {
        saw_p = true;
        EXPECT_EQ(arg.json, "4");
      }
    }
    EXPECT_TRUE(saw_algo && saw_bytes && saw_p);
  }
  EXPECT_EQ(allreduce_spans, 4u);  // one span per rank
}

TEST(Trace, RenderIsByteIdenticalAcrossReruns) {
  const auto machine = noisy_machine();
  const auto a = traced_ft(machine, 4);
  const auto b = traced_ft(machine, 4);
  ASSERT_FALSE(a.json.empty());
  EXPECT_EQ(a.json, b.json);
}

TEST(Trace, RenderIsByteIdenticalAcrossJobsBudgets) {
  const auto machine = noisy_machine();
  // The same four FT cases run serially and on a 4-thread budget; each case
  // owns its engine and collector, so the rendered traces must match bit for
  // bit (the executor's determinism contract extended to trace artifacts).
  const auto make_cases = [&machine] {
    std::vector<exec::Case> cases;
    for (int i = 0; i < 4; ++i) {
      exec::Case c;
      c.threads = 2;
      c.run = [&machine] { return traced_ft(machine, 2).json; };
      cases.push_back(std::move(c));
    }
    return cases;
  };

  exec::ExecConfig config;
  config.jobs = 1;
  exec::Executor serial(config);
  const auto serial_results = serial.run(make_cases());

  config.jobs = 4;
  exec::Executor parallel(config);
  const auto parallel_results = parallel.run(make_cases());

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    ASSERT_TRUE(serial_results[i].ok());
    ASSERT_TRUE(parallel_results[i].ok());
    EXPECT_EQ(serial_results[i].payload, parallel_results[i].payload) << "case " << i;
  }
}

TEST(Trace, FlowIdsAreUniqueInRenderedOutputEvenAcrossPooledRuns) {
  // Two engine runs into ONE collector reuse raw (src, dst, tag, seq) ids;
  // the writer must renumber so the file's flow ids stay unique.
  obs::TraceCollector collector;
  for (int run = 0; run < 2; ++run) {
    sim::EngineOptions opts;
    opts.trace_sink = &collector;
    sim::Engine engine(quiet_machine(), opts);
    engine.run(2, [](sim::RankCtx& ctx) {
      std::vector<std::byte> buf(64);
      if (ctx.rank() == 0) {
        ctx.send_bytes(1, 0, buf);
      } else {
        ctx.recv(0, 0, std::span<std::byte>(buf));
      }
    });
  }
  const std::string json = obs::ChromeTraceWriter::render(collector.sorted());
  const auto trace = benchtools::parse_trace(json);
  EXPECT_TRUE(benchtools::validate_trace(trace).empty());
}

// --- round trip through the loader ----------------------------------------

TEST(TraceRoundTrip, SegmentsSurviveExportAndReload) {
  const auto machine = noisy_machine();
  obs::TraceCollector collector;
  powerpack::PhaseLog phases;
  analysis::RunOptions options;
  options.record_trace = true;
  options.phases = &phases;
  options.trace = &collector;
  const auto run =
      analysis::run_ft(machine, npb::ft_class(npb::ProblemClass::S), 4, options);

  const std::string json = obs::ChromeTraceWriter::render(collector.sorted());
  const auto trace = benchtools::parse_trace(json);
  EXPECT_TRUE(benchtools::validate_trace(trace).empty());

  const auto segments = benchtools::segments_of(trace);
  ASSERT_EQ(segments.size(), run.traces.size());
  for (std::size_t r = 0; r < segments.size(); ++r) {
    ASSERT_EQ(segments[r].size(), run.traces[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < segments[r].size(); ++i) {
      const auto& got = segments[r][i];
      const auto& want = run.traces[r][i];
      // Exported in microseconds; reload is within 1 ulp of the original.
      EXPECT_NEAR(got.start, want.start, 1e-15) << "rank " << r << " seg " << i;
      EXPECT_NEAR(got.duration, want.duration, 1e-15);
      EXPECT_EQ(got.activity, want.activity);
      EXPECT_DOUBLE_EQ(got.ghz, want.ghz);
    }
  }
}

TEST(TraceRoundTrip, WriteCreatesLoadableFile) {
  obs::TraceCollector collector;
  sim::EngineOptions opts;
  opts.trace_sink = &collector;
  sim::Engine engine(quiet_machine(), opts);
  engine.run(2, [](sim::RankCtx& ctx) { ctx.compute(1000); });

  const std::string path = temp_path("obs_roundtrip_trace.json");
  ASSERT_TRUE(obs::ChromeTraceWriter::write(collector.sorted(), path,
                                            {{"machine", "SystemG"}}));
  const auto trace = benchtools::load_trace(path);
  EXPECT_EQ(trace.metadata.at("machine"), "SystemG");
  EXPECT_TRUE(benchtools::validate_trace(trace).empty());
  EXPECT_GT(trace.events.size(), 0u);
  std::remove(path.c_str());
}

TEST(TraceValidation, CatchesStructuralProblems) {
  EXPECT_THROW(benchtools::parse_trace("{"), std::runtime_error);
  EXPECT_THROW(benchtools::parse_trace("{\"noTraceEvents\":[]}"), std::runtime_error);

  // A flow begin with no matching end, and an unknown phase letter.
  const std::string bad =
      "{\"otherData\":{},\"traceEvents\":["
      "{\"name\":\"msg\",\"cat\":\"pt2pt\",\"pid\":0,\"tid\":0,\"ts\":1,"
      "\"ph\":\"s\",\"id\":9},"
      "{\"name\":\"x\",\"cat\":\"sim\",\"pid\":0,\"tid\":0,\"ts\":2,\"ph\":\"Q\"}"
      "]}";
  const auto problems = benchtools::validate_trace(benchtools::parse_trace(bad));
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("unknown ph"), std::string::npos);
  EXPECT_NE(problems[1].find("never ends"), std::string::npos);
}

// --- attribution ------------------------------------------------------------

TEST(TraceStats, PhaseEnergyMatchesPhaseLogSummaries) {
  const auto machine = noisy_machine();
  obs::TraceCollector collector;
  powerpack::PhaseLog phases;
  analysis::RunOptions options;
  options.record_trace = true;
  options.phases = &phases;
  options.trace = &collector;
  const auto run =
      analysis::run_ft(machine, npb::ft_class(npb::ProblemClass::S), 4, options);

  const powerpack::Profiler profiler(machine);
  const auto reference = powerpack::summarize_phases(phases, profiler, run.traces);
  ASSERT_FALSE(reference.empty());

  const auto trace = benchtools::parse_trace(
      obs::ChromeTraceWriter::render(collector.sorted(), {{"machine", machine.name}}));
  const auto report = benchtools::analyze(trace, machine);
  ASSERT_EQ(report.phases.size(), reference.size());

  for (const auto& want : reference) {
    const auto it = std::find_if(report.phases.begin(), report.phases.end(),
                                 [&](const auto& row) { return row.name == want.name; });
    ASSERT_NE(it, report.phases.end()) << want.name;
    EXPECT_EQ(static_cast<int>(it->count), want.occurrences) << want.name;
    EXPECT_NEAR(it->time_s, want.time_s, 1e-12) << want.name;
    EXPECT_NEAR(it->energy_j, want.energy_j, 1e-9) << want.name;
  }
}

TEST(TraceStats, DiffGovernorOnVsFixedGearIsConsistentWithPhaseLogs) {
  const auto machine = noisy_machine();
  const int p = 4;

  // A: fixed low gear. B: governed (capped) run.
  const auto a = traced_ft(machine, p, nullptr, machine.cpu.gears_ghz.back());

  governor::GovernorSpec gspec;
  gspec.window_s = 0.0005;
  gspec.decision_interval_s = 0.0001;
  gspec.cap_w = machine.power.system_idle_w() * p * 1.05;
  governor::CapPolicyConfig cap_cfg;
  cap_cfg.gears_ghz = machine.cpu.gears_ghz;
  cap_cfg.cap_w = gspec.cap_w;
  cap_cfg.gamma = machine.power.gamma;
  cap_cfg.min_dwell_s = 0.0002;
  cap_cfg.up_dwell_s = 0.0004;
  governor::Governor gov(machine, gspec, governor::make_cap_policy(cap_cfg));
  const auto b = traced_ft(machine, p, &gov);

  const auto trace_a = benchtools::parse_trace(a.json);
  const auto trace_b = benchtools::parse_trace(b.json);
  const auto report_a = benchtools::analyze(trace_a, machine);
  const auto report_b = benchtools::analyze(trace_b, machine);

  // The governed run emits decision instants; the fixed-gear run does not.
  EXPECT_EQ(report_a.governor_decisions, 0u);
  EXPECT_GT(report_b.governor_decisions, 0u);

  // Whole-trace energy attribution agrees with the Profiler integrated over
  // the recorded timelines (reconstructed segments === recorded segments
  // within round-trip ulps). Note: engine accounting is a different model
  // (fig10 prints both side by side), so the Profiler is the right reference.
  const powerpack::Profiler profiler(machine);
  const auto profiler_total_j = [&profiler](const sim::RunResult& run) {
    double total = 0.0;
    for (const auto& trace : run.traces) {
      if (trace.empty()) continue;
      total += profiler.energy_between_j(trace, trace.front().start,
                                         trace.back().start + trace.back().duration);
    }
    return total;
  };
  EXPECT_NEAR(report_a.total_energy_j, profiler_total_j(a.result), 1e-9);
  EXPECT_NEAR(report_b.total_energy_j, profiler_total_j(b.result), 1e-9);

  // Diff rows join per phase; each side's energy matches its own PhaseLog
  // summary to 1e-9 J, so the reported deltas are trustworthy.
  const auto diff = benchtools::diff_rows(report_a.phases, report_b.phases);
  ASSERT_FALSE(diff.empty());
  double delta_sum = 0.0;
  for (const auto& row : diff) {
    EXPECT_GT(row.count_a, 0u) << row.name;
    EXPECT_GT(row.count_b, 0u) << row.name;
    delta_sum += row.energy_delta();
  }
  double phase_a = 0.0, phase_b = 0.0;
  for (const auto& r : report_a.phases) phase_a += r.energy_j;
  for (const auto& r : report_b.phases) phase_b += r.energy_j;
  EXPECT_NEAR(delta_sum, phase_b - phase_a, 1e-9);
}

// --- CSV determinism --------------------------------------------------------

TEST(SegmentsCsv, ByteIdenticalAcrossReruns) {
  const auto machine = noisy_machine();
  const auto run_once = [&machine](const std::string& path) {
    analysis::RunOptions options;
    options.record_trace = true;
    const auto run =
        analysis::run_ft(machine, npb::ft_class(npb::ProblemClass::S), 4, options);
    ASSERT_TRUE(powerpack::write_segments_csv(run.traces, path));
  };
  const std::string path_a = temp_path("obs_segments_a.csv");
  const std::string path_b = temp_path("obs_segments_b.csv");
  run_once(path_a);
  run_once(path_b);
  const std::string a = slurp(path_a);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}
