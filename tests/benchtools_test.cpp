// Tests for the calibration tools (lat_mem_rd staircase, mpptest parameter
// recovery, full machine-vector calibration against ground truth), the
// collapsed-stack flamegraph path of trace_stats and its --metrics reader.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchtools/calibrate.hpp"
#include "benchtools/latency.hpp"
#include "benchtools/mpptest.hpp"
#include "benchtools/tracestats.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"

namespace {

using namespace isoee;

sim::MachineSpec machine() {
  auto m = sim::system_g();
  m.noise.enabled = false;
  return m;
}

TEST(LatMemRd, ReproducesStaircase) {
  const auto spec = machine();
  tools::LatMemRdOptions opts;
  opts.min_ws = 4 * 1024;
  opts.max_ws = 64ull * 1024 * 1024;
  opts.accesses_per_point = 100'000;
  const auto points = tools::lat_mem_rd(spec, opts);
  ASSERT_GT(points.size(), 5u);
  // Monotone non-decreasing latency.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].latency_s, points[i - 1].latency_s * 0.999);
  }
  // Small working sets near L1 latency; large near DRAM.
  EXPECT_LT(points.front().latency_s, 3e-9);
  EXPECT_GT(points.back().latency_s, 0.7 * spec.mem.dram_latency_s);
}

TEST(LatMemRd, EstimateTmNearDram) {
  const auto spec = machine();
  tools::LatMemRdOptions opts;
  opts.accesses_per_point = 100'000;
  const double t_m = tools::estimate_t_m(spec, opts);
  EXPECT_NEAR(t_m, spec.mem.dram_latency_s, 0.05 * spec.mem.dram_latency_s);
}

TEST(Mpptest, RecoversNetworkParameters) {
  const auto spec = machine();
  const auto fit = tools::mpptest(spec);
  EXPECT_NEAR(fit.t_s, spec.net.t_s, 0.1 * spec.net.t_s);
  EXPECT_NEAR(fit.t_w, spec.net.t_w(), 0.05 * spec.net.t_w());
  EXPECT_GT(fit.r2, 0.999);
  EXPECT_GT(fit.points.size(), 5u);
}

TEST(Mpptest, WorksOnEthernetToo) {
  auto spec = sim::dori();
  spec.noise.enabled = false;
  const auto fit = tools::mpptest(spec);
  EXPECT_NEAR(fit.t_s, spec.net.t_s, 0.1 * spec.net.t_s);
  EXPECT_NEAR(fit.t_w, spec.net.t_w(), 0.05 * spec.net.t_w());
}

TEST(Calibrate, MatchesNominalWithoutNoise) {
  const auto spec = machine();
  const auto measured = tools::calibrate_machine(spec);
  const auto nominal = tools::nominal_machine_params(spec);
  EXPECT_NEAR(measured.cpi, nominal.cpi, 0.01 * nominal.cpi);
  EXPECT_NEAR(measured.t_m, nominal.t_m, 0.05 * nominal.t_m);
  EXPECT_NEAR(measured.t_s, nominal.t_s, 0.1 * nominal.t_s);
  EXPECT_NEAR(measured.t_w, nominal.t_w, 0.05 * nominal.t_w);
  EXPECT_NEAR(measured.p_sys_idle, nominal.p_sys_idle, 1e-6);
  EXPECT_NEAR(measured.dp_c_base, nominal.dp_c_base, 0.01 * nominal.dp_c_base);
  EXPECT_NEAR(measured.dp_m, nominal.dp_m, 0.01 * nominal.dp_m);
  EXPECT_NEAR(measured.gamma, nominal.gamma, 0.02);
}

TEST(Calibrate, NoiseInducesSmallErrors) {
  auto spec = machine();
  spec.noise.enabled = true;
  const auto measured = tools::calibrate_machine(spec);
  const auto nominal = tools::nominal_machine_params(spec);
  // Within a few percent, but generally not exact.
  EXPECT_NEAR(measured.cpi, nominal.cpi, 0.1 * nominal.cpi);
  EXPECT_NEAR(measured.t_m, nominal.t_m, 0.15 * nominal.t_m);
  EXPECT_NEAR(measured.gamma, nominal.gamma, 0.3);
}

TEST(Calibrate, NominalRoundTripsSpec) {
  const auto spec = machine();
  const auto params = tools::nominal_machine_params(spec);
  EXPECT_EQ(params.name, spec.name);
  EXPECT_DOUBLE_EQ(params.f_ghz, spec.cpu.base_ghz);
  EXPECT_DOUBLE_EQ(params.t_c(), spec.cpu.cpi / (spec.cpu.base_ghz * 1e9));
  EXPECT_DOUBLE_EQ(params.p_sys_idle, spec.power.system_idle_w());
}

// --- collapsed stacks (trace_stats --flame) ---------------------------------

TEST(Collapsed, ParsesFramesAndCounts) {
  const auto lines = benchtools::parse_collapsed(
      "isoee_engine;worker_0;fiber_run;rank_3 12\n"
      "isoee_engine;worker_0;heap_dispatch 4\n"
      "\n"  // blank lines are skipped
      "isoee_engine;worker_1;mailbox_wait 7\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].frames,
            (std::vector<std::string>{"isoee_engine", "worker_0", "fiber_run", "rank_3"}));
  EXPECT_EQ(lines[0].samples, 12u);
  EXPECT_EQ(lines[1].frames.size(), 3u);
  EXPECT_EQ(lines[2].samples, 7u);
}

TEST(Collapsed, ParseRejectsMalformedLinesWithLineNumbers) {
  const auto throws_with = [](const char* text, const char* needle) {
    try {
      benchtools::parse_collapsed(text);
      FAIL() << "expected throw for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  throws_with("stack_without_count\n", "collapsed line 1");
  throws_with("a;b 3\nstack 0\n", "collapsed line 2");       // zero count
  throws_with("a;b notanumber\n", "not a positive integer");
  throws_with("a;;b 3\n", "empty frame");
}

TEST(Collapsed, ValidateAcceptsProfilerShapedOutput) {
  const auto lines = benchtools::parse_collapsed(
      "isoee_engine;worker_0;fiber_run;rank_0 3\n"
      "isoee_engine;worker_0;fiber_run;rank_other 1\n"
      "isoee_engine;worker_0;idle 2\n"
      "isoee_engine;worker_1;mailbox_wait 5\n");
  EXPECT_TRUE(benchtools::validate_collapsed(lines).empty());
}

TEST(Collapsed, ValidateFlagsStructuralProblems) {
  const auto problems_of = [](const char* text) {
    return benchtools::validate_collapsed(benchtools::parse_collapsed(text));
  };
  EXPECT_EQ(problems_of("")[0], "no stacks (profiler collected zero samples?)");

  // Unsorted, duplicate, foreign root, bad worker frame, unknown phase.
  auto p = problems_of(
      "isoee_engine;worker_1;idle 1\n"
      "isoee_engine;worker_0;idle 1\n");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("not sorted"), std::string::npos);

  p = problems_of(
      "isoee_engine;worker_0;idle 1\n"
      "isoee_engine;worker_0;idle 2\n");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("duplicate stack"), std::string::npos);

  p = problems_of(
      "isoee_engine;worker_0;idle 1\n"
      "other_root;worker_0;idle 1\n");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("share root"), std::string::npos);

  p = problems_of("isoee_engine;thread_0;fiber_run 1\n");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("not a worker_<id>"), std::string::npos);

  p = problems_of("isoee_engine;worker_0;sleeping 1\n");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("unknown scheduler phase"), std::string::npos);

  p = problems_of("isoee_engine;worker_0 1\n");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("too shallow"), std::string::npos);
}

TEST(Collapsed, ByDepthAggregatesAndRanks) {
  const auto lines = benchtools::parse_collapsed(
      "isoee_engine;worker_0;fiber_run;rank_0 3\n"
      "isoee_engine;worker_0;heap_dispatch 2\n"
      "isoee_engine;worker_1;fiber_run;rank_1 4\n");
  const auto by_phase = benchtools::collapsed_by_depth(lines, 2);
  ASSERT_EQ(by_phase.size(), 2u);
  EXPECT_EQ(by_phase[0], (std::pair<std::string, std::uint64_t>{"fiber_run", 7u}));
  EXPECT_EQ(by_phase[1], (std::pair<std::string, std::uint64_t>{"heap_dispatch", 2u}));
  // Depth past the short stack groups under "".
  const auto by_rank = benchtools::collapsed_by_depth(lines, 3);
  ASSERT_EQ(by_rank.size(), 3u);
  EXPECT_EQ(by_rank[0].first, "rank_1");
}

// --- metrics snapshots (trace_stats --metrics) ------------------------------

TEST(MetricsFile, LoadsEveryRowOfAWriteJsonFileEngineRowsFirst) {
  obs::MetricsRegistry reg;
  reg.counter("a.before").inc(3);
  reg.counter("engine.events_processed").inc(12345);
  reg.gauge("engine.rank_seconds_per_sec").set(0.1);
  reg.histogram("sim.x", std::vector<double>{1.0}).observe(2.0);
  reg.counter("z.after").inc();
  const std::string path =
      (std::filesystem::temp_directory_path() / "benchtools_metrics_test.json").string();
  ASSERT_TRUE(reg.write_json(path));
  const auto rows = benchtools::load_metrics(path);
  std::remove(path.c_str());

  // engine.* first, then every other row in snapshot (file) order.
  std::vector<std::string> engine, rest;
  for (const auto& s : reg.snapshot()) {
    (s.name.starts_with("engine.") ? engine : rest).push_back(s.name);
  }
  std::vector<std::string> want = engine;
  want.insert(want.end(), rest.begin(), rest.end());
  std::vector<std::string> names;
  for (const auto& r : rows) names.push_back(r.name);
  EXPECT_EQ(names, want);
  ASSERT_EQ(rows.size(), 8u);  // 2 engine, a, z and 4 histogram rows
  EXPECT_EQ(rows[0].kind, "counter");
  EXPECT_EQ(rows[0].value, 12345.0);
  EXPECT_EQ(rows[1].kind, "gauge");
  EXPECT_EQ(rows[1].value, 0.1);
  EXPECT_EQ(rows[2].name, "a.before");

  EXPECT_THROW(benchtools::load_metrics(path), std::runtime_error);  // gone
}

}  // namespace
