// Tests for the analysis layer: least squares, workload-fit coefficient
// recovery, the end-to-end EnergyStudy pipeline (model exactness without
// noise; paper-band errors with noise), the calibration plan, the app
// registry, baselines, and surfaces.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/baselines.hpp"
#include "analysis/leastsq.hpp"
#include "analysis/study.hpp"
#include "analysis/surface.hpp"
#include "analysis/workload_fit.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "model/serialize.hpp"
#include "npb/classes.hpp"

namespace {

using namespace isoee;

// --- least squares -----------------------------------------------------------

TEST(Ols, RecoversPlantedCoefficients) {
  std::vector<double> x1, x2, y;
  for (int i = 1; i <= 20; ++i) {
    x1.push_back(i);
    x2.push_back(i * i);
    y.push_back(3.0 * i + 0.5 * i * i);
  }
  const std::vector<std::vector<double>> cols = {x1, x2};
  const auto fit = analysis::ols(cols, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.coeffs[0], 3.0, 1e-9);
  EXPECT_NEAR(fit.coeffs[1], 0.5, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Ols, HandlesNoise) {
  util::Xoshiro256 rng(5);
  std::vector<double> x, y;
  for (int i = 1; i <= 200; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i * (1.0 + 0.01 * rng.normal()));
  }
  const std::vector<std::vector<double>> cols = {x};
  const auto fit = analysis::ols(cols, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.coeffs[0], 2.0, 0.01);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Ols, SingularSystemReported) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<std::vector<double>> cols = {x, x};  // perfectly collinear
  const auto fit = analysis::ols(cols, x);
  EXPECT_FALSE(fit.ok);
}

TEST(Ols, RejectsUnderdetermined) {
  const std::vector<double> y = {1.0};
  const std::vector<std::vector<double>> cols = {{1.0}, {2.0}};
  EXPECT_FALSE(analysis::ols(cols, y).ok);
}

TEST(Ols1, SingleTermFit) {
  const std::vector<double> x = {1, 2, 4};
  const std::vector<double> y = {3, 6, 12};
  EXPECT_NEAR(analysis::ols1(x, y), 3.0, 1e-12);
}

// --- workload fit recovery ------------------------------------------------------

TEST(WorkloadFit, EpRecoversLinearCoefficients) {
  // Synthesise samples from a known EP-like workload.
  std::vector<analysis::CounterSample> samples;
  const double a = 47.0, b = 0.015, t_m = 80e-9;
  for (double n : {1e5, 2e5, 4e5}) {
    analysis::CounterSample s;
    s.n = n;
    s.p = 1;
    s.instructions = a * n;
    s.mem_time = b * n * t_m;
    s.alpha = 0.93;
    samples.push_back(s);
  }
  for (int p : {2, 4, 8}) {
    analysis::CounterSample s;
    s.n = 4e5;
    s.p = p;
    s.instructions = a * s.n + 26.0 * p * model::ceil_log2(p);
    s.mem_time = b * s.n * t_m;
    s.alpha = 0.93;
    samples.push_back(s);
  }
  const auto w = analysis::fit_ep_workload(samples, t_m);
  EXPECT_NEAR(w.wc_per_trial, a, 1e-6);
  EXPECT_NEAR(w.wm_per_trial, b, 1e-9);
  EXPECT_NEAR(w.dwoc_plogp, 26.0, 1e-6);
  EXPECT_NEAR(w.alpha, 0.93, 1e-12);
}

TEST(WorkloadFit, FtRecoversNLogNCoefficients) {
  std::vector<analysis::CounterSample> samples;
  const double a = 56.0, b = 120.0, c = 2.5, t_m = 80e-9;
  for (double n : {32768.0, 262144.0, 2097152.0}) {
    analysis::CounterSample s;
    s.n = n;
    s.p = 1;
    s.instructions = a * n * std::log2(n) + b * n;
    s.mem_time = c * n * t_m;
    s.alpha = 0.9;
    samples.push_back(s);
  }
  for (int p : {2, 4, 8}) {
    analysis::CounterSample s;
    s.n = 2097152.0;
    s.p = p;
    s.instructions = a * s.n * std::log2(s.n) + b * s.n + 100.0 * p;
    s.mem_time = c * s.n * t_m;
    s.alpha = 0.9;
    samples.push_back(s);
  }
  const auto w = analysis::fit_ft_workload(samples, 6, t_m);
  EXPECT_NEAR(w.wc_nlogn, a, 1e-3);
  EXPECT_NEAR(w.wc_n, b, 0.1);
  EXPECT_NEAR(w.wm_n, c, 1e-6);
}

TEST(WorkloadFit, CgRecoversOverheadTerms) {
  std::vector<analysis::CounterSample> samples;
  const double a = 2.9e4, c = 5e3, doc = 750.0, dom = 47.0, t_m = 80e-9;
  for (double n : {2000.0, 4000.0, 8000.0}) {
    analysis::CounterSample s;
    s.n = n;
    s.p = 1;
    s.instructions = a * n;
    s.mem_time = c * n * t_m;
    s.alpha = 0.85;
    samples.push_back(s);
  }
  for (int p : {2, 4, 8}) {
    analysis::CounterSample s;
    s.n = 8000.0;
    s.p = p;
    s.instructions = a * s.n + doc * s.n * (p - 1);
    s.mem_time = (c * s.n + dom * s.n * (p - 1)) * t_m;
    s.alpha = 0.85;
    samples.push_back(s);
  }
  const auto w = analysis::fit_cg_workload(samples, 15, 25, 13.0, t_m);
  EXPECT_NEAR(w.wc_n, a, 1e-3);
  EXPECT_NEAR(w.wm_n, c, 1e-6);
  EXPECT_NEAR(w.dwoc_npm1, doc, 1e-3);
  EXPECT_NEAR(w.dwom_npm1, dom, 1e-6);
}

TEST(WorkloadFit, CgAllowsNegativeMemoryOverhead) {
  std::vector<analysis::CounterSample> samples;
  const double a = 1e4, c = 5e3, t_m = 80e-9;
  analysis::CounterSample s1;
  s1.n = 8000.0;
  s1.p = 1;
  s1.instructions = a * s1.n;
  s1.mem_time = c * s1.n * t_m;
  samples.push_back(s1);
  for (int p : {2, 4}) {
    analysis::CounterSample s;
    s.n = 8000.0;
    s.p = p;
    s.instructions = a * s.n;
    s.mem_time = (c * s.n - 10.0 * s.n * (p - 1)) * t_m;  // caching gain
    samples.push_back(s);
  }
  const auto w = analysis::fit_cg_workload(samples, 15, 25, 13.0, t_m);
  EXPECT_LT(w.dwom_npm1, 0.0);  // the paper's CG vector has this sign too
}

// --- end-to-end study pipeline ----------------------------------------------------

TEST(EnergyStudy, ExactnessWithoutNoise) {
  // With noise off and nominal machine parameters, model predictions must be
  // within a couple percent of the simulation (residual: fit imperfections,
  // unmodelled collective wait skew).
  auto spec = sim::system_g();
  spec.noise.enabled = false;
  exec::Executor executor;
  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::EpConfig()),
                              /*measured=*/false, executor);
  const double ns[] = {1 << 15, 1 << 16, 1 << 17};
  const int ps[] = {2, 4};
  study.calibrate(ns, ps);
  for (int p : {1, 2, 8, 32}) {
    const auto v = study.validate(1 << 18, p);
    EXPECT_LT(v.error_pct, 2.0) << "p=" << p;
  }
}

TEST(EnergyStudy, PaperBandErrorsWithNoise) {
  auto spec = sim::system_g();
  spec.noise.enabled = true;
  exec::Executor executor;
  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::CgConfig()), true,
                              executor);
  const double ns[] = {1000, 2000, 4000};
  const int ps[] = {2, 4, 8};
  study.calibrate(ns, ps);
  double worst = 0.0;
  for (int p : {1, 4, 16, 32}) {
    const auto v = study.validate(8000, p);
    worst = std::max(worst, v.error_pct);
  }
  // The paper reports single-digit average errors; allow some headroom on
  // the worst case.
  EXPECT_LT(worst, 15.0);
}

TEST(EnergyStudy, PredictBeforeCalibrateThrows) {
  auto spec = sim::system_g();
  exec::Executor executor;
  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::EpConfig()),
                              /*measured=*/false, executor);
  EXPECT_THROW((void)study.predict(1000, 4), std::logic_error);
}

TEST(EnergyStudy, FtAdapterSnapsToValidGrid) {
  auto spec = sim::system_g();
  spec.noise.enabled = false;
  exec::Executor executor;
  analysis::EnergyStudy study(spec, analysis::make_adapter(npb::FtConfig()),
                              /*measured=*/false, executor);
  const double ns[] = {32.0 * 32 * 32};
  const int ps[] = {2};
  study.calibrate(ns, ps);
  const auto v = study.validate(40000.0, 4);  // snaps to 32^3 = 32768
  EXPECT_EQ(v.n, 32768.0);
}

TEST(CalibrationPlan, SizesAtOneRankThenRanksAtTheLargestSize) {
  const auto spec = sim::system_g();
  const std::shared_ptr<const analysis::BenchmarkAdapter> ep =
      analysis::make_adapter(npb::EpConfig());
  const std::string machine_fp = exec::machine_fingerprint(spec);
  const double ns[] = {1000, 2000};
  const int ps[] = {1, 2, 4};  // p=1 is already covered by the size sweep
  const auto cases = analysis::calibration_cases(spec, ep, ns, ps);
  const std::pair<double, int> expected[] = {{1000, 1}, {2000, 1}, {2000, 2}, {2000, 4}};
  ASSERT_EQ(cases.size(), std::size(expected));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].cache_key,
              analysis::study_key("calibrate", machine_fp, ep->fingerprint(),
                                  expected[i].first, expected[i].second, 0.0));
  }
  // With no sizes, the parallel points run at the adapter's default size.
  const auto defaulted = analysis::calibration_cases(spec, ep, {}, ps);
  ASSERT_EQ(defaulted.size(), 2u);
  EXPECT_EQ(defaulted[0].cache_key, analysis::study_key("calibrate", machine_fp,
                                                        ep->fingerprint(), ep->default_n(),
                                                        2, 0.0));
}

TEST(CalibrationPlan, MachineParamsCaseRoundTripsTheNominalVector) {
  const auto spec = sim::system_g();
  const exec::Case c = analysis::machine_params_case(spec, /*measured=*/false);
  EXPECT_NE(c.cache_key, analysis::machine_params_case(spec, true).cache_key);
  const model::MachineParams decoded = analysis::decode_machine_params(c.run());
  EXPECT_EQ(model::serialize(decoded),
            model::serialize(tools::nominal_machine_params(spec)));
  EXPECT_THROW(analysis::decode_machine_params("no separator"), std::invalid_argument);
}

// The payload bytes are what cache directories hold, so they are pinned: a
// cache written by an earlier build must keep serving this entry.
TEST(CalibrationPlan, MachineParamsPayloadIsPinned) {
  EXPECT_EQ(analysis::machine_params_case(sim::system_g(), /*measured=*/false).run(),
            "SystemG\x1f"
            "3fe199999999999a 4006666666666666 4006666666666666 3e75798ee2308c3a "
            "3ec4f8b588e368f1 3deb7cdfd9d7bdbb 403d000000000000 4028000000000000 "
            "4014000000000000 0000000000000000 4000000000000000 0000000000000000 "
            "0000000000000000");
}

TEST(CalibrationPlan, MeasureCaseKeysByPointAndRoundTrips) {
  const auto spec = sim::system_g();
  const std::shared_ptr<const analysis::BenchmarkAdapter> ep =
      analysis::make_adapter(npb::EpConfig());
  const exec::Case c = analysis::measure_case(spec, ep, 3000, 2, 2.4);
  EXPECT_EQ(c.cache_key, analysis::study_key("measure", exec::machine_fingerprint(spec),
                                             ep->fingerprint(), 3000, 2, 2.4));
  const analysis::Measurement m = analysis::decode_measurement(c.run());
  EXPECT_EQ(m.n, 3000.0);
  EXPECT_GT(m.energy_j, 0.0);
  EXPECT_GT(m.time_s, 0.0);
  EXPECT_GT(m.alpha, 0.0);
  EXPECT_THROW(analysis::decode_measurement(exec::encode_doubles({1.0, 2.0, 3.0})),
               std::invalid_argument);
}

// --- app registry ------------------------------------------------------------------

TEST(AppRegistry, NamesAreUniqueAndInOrder) {
  std::vector<std::string> names;
  for (const analysis::AppInfo& app : analysis::app_table()) names.emplace_back(app.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"EP", "FT", "CG", "IS", "MG", "CKPT", "SWEEP"}));
  for (const std::string& name : names) {
    ASSERT_NE(analysis::find_app(name), nullptr) << name;
    EXPECT_EQ(analysis::find_app(name)->name, name);
  }
  EXPECT_EQ(analysis::find_app("ep"), nullptr);
  EXPECT_EQ(analysis::find_app(""), nullptr);
}

TEST(AppRegistry, AdapterNamesMatchTableNames) {
  for (const analysis::AppInfo& app : analysis::app_table()) {
    EXPECT_EQ(app.make_adapter()->name(), app.name);
  }
}

TEST(AppRegistry, OnlyFtAndMgRequireAPowerOfTwoP) {
  for (const analysis::AppInfo& app : analysis::app_table()) {
    const std::string name = app.name;
    EXPECT_EQ(app.pow2_p, name == "FT" || name == "MG") << name;
  }
}

TEST(AppRegistry, StockModelsExistForExactlyEpFtCgIs) {
  for (const analysis::AppInfo& app : analysis::app_table()) {
    const std::string name = app.name;
    const bool stocked = name == "EP" || name == "FT" || name == "CG" || name == "IS";
    ASSERT_EQ(app.stock_model != nullptr, stocked) << name;
    if (stocked) {
      EXPECT_NE(app.stock_model(), nullptr) << name;
    }
  }
  // The stock models are the workloads.hpp defaults.
  EXPECT_EQ(model::serialize(*analysis::find_app("FT")->stock_model()),
            model::serialize(model::FtWorkload()));
}

// Every adapter fingerprint heads its result-cache keys, so these literals,
// printed by the build before adapters walked the config field lists, must
// never change by accident: a change orphans every warm --cache-dir entry.
TEST(AppRegistry, FingerprintsArePinned) {
  // The default config of each app, in table order, with its default n.
  const std::pair<const char*, double> defaults[] = {
      {"EP;trials=1048576;seed=41b033c4d7000000"
       ";coll=0,0,0,0,fixed,0000000000000000",
       1048576},
      {"FT;nx=64;ny=64;nz=64;iters=6;alpha=3eb0c6f7a0b5ed8d;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000",
       262144},
      {"CG;n=14000;offsets=6;outer=15;inner=25;shift=4034000000000000;seed=50886"
       ";coll=0,0,0,0,fixed,0000000000000000",
       14000},
      {"IS;nkeys=1048576;bits=16;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000",
       1048576},
      {"MG;nx=64;ny=64;nz=64;cycles=4;pre=2;post=2;maxlev=0;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000",
       262144},
      {"CKPT;elements=1048576;iterations=20;every=5;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000",
       1048576},
      {"SWEEP;nx=512;ny=512;sweeps=4;tile=64;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000",
       262144},
  };
  const auto apps = analysis::app_table();
  ASSERT_EQ(apps.size(), std::size(defaults));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto adapter = apps[i].make_adapter();
    EXPECT_EQ(adapter->fingerprint(), defaults[i].first) << apps[i].name;
    EXPECT_EQ(adapter->default_n(), defaults[i].second) << apps[i].name;
  }

  // Each class preset a bench driver runs.
  using npb::ProblemClass;
  const std::pair<std::unique_ptr<analysis::BenchmarkAdapter>, const char*> presets[] = {
      {analysis::make_adapter(npb::ep_class(ProblemClass::A)),
       "EP;trials=4194304;seed=41b033c4d7000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::ep_class(ProblemClass::B)),
       "EP;trials=16777216;seed=41b033c4d7000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::ep_class(ProblemClass::W)),
       "EP;trials=1048576;seed=41b033c4d7000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::ft_class(ProblemClass::A)),
       "FT;nx=64;ny=64;nz=64;iters=6;alpha=3eb0c6f7a0b5ed8d;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::ft_class(ProblemClass::B)),
       "FT;nx=128;ny=128;nz=128;iters=6;alpha=3eb0c6f7a0b5ed8d;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::ft_class(ProblemClass::W)),
       "FT;nx=64;ny=64;nz=64;iters=4;alpha=3eb0c6f7a0b5ed8d;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::cg_class(ProblemClass::A)),
       "CG;n=14000;offsets=6;outer=15;inner=25;shift=4034000000000000;seed=50886"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::cg_class(ProblemClass::B)),
       "CG;n=75000;offsets=6;outer=15;inner=25;shift=4034000000000000;seed=50886"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::cg_class(ProblemClass::W)),
       "CG;n=7000;offsets=6;outer=10;inner=25;shift=4034000000000000;seed=50886"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::is_class(ProblemClass::A)),
       "IS;nkeys=4194304;bits=16;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::is_class(ProblemClass::W)),
       "IS;nkeys=1048576;bits=15;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::mg_class(ProblemClass::A)),
       "MG;nx=64;ny=64;nz=64;cycles=6;pre=2;post=2;maxlev=0;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::mg_class(ProblemClass::W)),
       "MG;nx=64;ny=64;nz=64;cycles=4;pre=2;post=2;maxlev=0;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::mg_class(ProblemClass::S)),
       "MG;nx=32;ny=32;nz=32;cycles=4;pre=2;post=2;maxlev=0;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
      {analysis::make_adapter(npb::sweep_class(ProblemClass::S)),
       "SWEEP;nx=256;ny=256;sweeps=4;tile=64;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,0000000000000000"},
  };
  for (const auto& [adapter, fingerprint] : presets) {
    EXPECT_EQ(adapter->fingerprint(), fingerprint);
  }

  // ablation_comm_dvfs: FT class A with its collectives at a comm gear.
  const std::pair<double, const char*> comm_gears[] = {
      {1.6,
       "FT;nx=64;ny=64;nz=64;iters=6;alpha=3eb0c6f7a0b5ed8d;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,3ff999999999999a"},
      {1.2,
       "FT;nx=64;ny=64;nz=64;iters=6;alpha=3eb0c6f7a0b5ed8d;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,3ff3333333333333"},
      {1.0,
       "FT;nx=64;ny=64;nz=64;iters=6;alpha=3eb0c6f7a0b5ed8d;seed=41b2b9b0a1000000"
       ";coll=0,0,0,0,fixed,3ff0000000000000"},
  };
  for (const auto& [gear, fingerprint] : comm_gears) {
    npb::FtConfig config = npb::ft_class(ProblemClass::A);
    config.collectives.comm_gear_ghz = gear;
    EXPECT_EQ(analysis::make_adapter(config)->fingerprint(), fingerprint) << gear;
  }
}

// --- baselines ---------------------------------------------------------------------

TEST(Baselines, PerfEfficiencyBounded) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::FtWorkload ft;
  for (int p : {1, 2, 8, 64}) {
    const double e = analysis::perf_efficiency(machine, ft, 64.0 * 64 * 64, p);
    EXPECT_GT(e, 0.0);
    EXPECT_LE(e, 1.0 + 1e-9);
  }
}

TEST(Baselines, IsoefficiencyFunctionGrowsWithP) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::FtWorkload ft;
  const double n16 = analysis::isoefficiency_problem_size(machine, ft, 16, 0.9, 1e3, 1e13);
  const double n64 = analysis::isoefficiency_problem_size(machine, ft, 64, 0.9, 1e3, 1e13);
  ASSERT_GT(n16, 0.0);
  ASSERT_GT(n64, 0.0);
  EXPECT_GT(n64, n16);
}

TEST(Baselines, PowerAwareSpeedupDropsAtLowerFrequency) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::EpWorkload ep;
  const double s_full = analysis::power_aware_speedup(machine, ep, 1e6, 16, 2.8);
  const double s_slow = analysis::power_aware_speedup(machine, ep, 1e6, 16, 1.6);
  EXPECT_GT(s_full, s_slow);
  EXPECT_LE(s_full, 16.5);
}

TEST(Baselines, SweepRowsConsistent) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::CgWorkload cg;
  const int ps[] = {1, 4, 16};
  const auto rows = analysis::baseline_sweep(machine, cg, 75000, ps, 2.8);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_NEAR(rows[0].ee, 1.0, 1e-9);
  EXPECT_GT(rows[0].perf_eff, rows[2].perf_eff);
  EXPECT_GT(rows[2].pa_speedup, rows[0].pa_speedup);
}

// --- surfaces ------------------------------------------------------------------------

TEST(Surface, GridShapeAndMonotonicity) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::FtWorkload ft;
  const int ps[] = {1, 4, 16, 64};
  const double fs[] = {1.6, 2.0, 2.4, 2.8};
  exec::Executor executor;
  const auto s = analysis::ee_surface_pf(machine, ft, 64.0 * 64 * 64, ps, fs, executor);
  ASSERT_EQ(s.ee.size(), 4u);
  ASSERT_EQ(s.ee[0].size(), 4u);
  // EE declines with p at every frequency (FT, paper Fig 5).
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t r = 1; r < 4; ++r) {
      EXPECT_LE(s.ee[r][c], s.ee[r - 1][c] + 1e-12);
    }
  }
}

TEST(Surface, TableAndAsciiRender) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::CgWorkload cg;
  const int ps[] = {1, 8, 64};
  const double ns[] = {7000, 75000};
  exec::Executor executor;
  const auto s = analysis::ee_surface_pn(machine, cg, 2.8, ps, ns, executor);
  const auto table = analysis::surface_table(s);
  EXPECT_EQ(table.rows(), 3u);
  const std::string art = analysis::surface_ascii(s);
  EXPECT_NE(art.find("p=64"), std::string::npos);
  EXPECT_NE(art.find('|'), std::string::npos);
}


// --- classic speedup laws ------------------------------------------------------

TEST(SpeedupLaws, AmdahlLimits) {
  EXPECT_DOUBLE_EQ(analysis::amdahl_speedup(0.0, 16), 16.0);
  EXPECT_DOUBLE_EQ(analysis::amdahl_speedup(1.0, 16), 1.0);
  // Asymptote 1/s.
  EXPECT_NEAR(analysis::amdahl_speedup(0.1, 1'000'000), 10.0, 0.01);
  EXPECT_DOUBLE_EQ(analysis::amdahl_speedup(0.5, 1), 1.0);
}

TEST(SpeedupLaws, GustafsonScalesLinearly) {
  EXPECT_DOUBLE_EQ(analysis::gustafson_speedup(0.0, 32), 32.0);
  EXPECT_DOUBLE_EQ(analysis::gustafson_speedup(1.0, 32), 1.0);
  EXPECT_DOUBLE_EQ(analysis::gustafson_speedup(0.25, 4), 0.25 + 0.75 * 4);
}

TEST(SpeedupLaws, SunNiInterpolates) {
  const double s = 0.2;
  const int p = 64;
  // k = 0: Amdahl; k = 1: Gustafson.
  EXPECT_NEAR(analysis::sun_ni_speedup(s, p, 0.0), analysis::amdahl_speedup(s, p), 1e-9);
  EXPECT_NEAR(analysis::sun_ni_speedup(s, p, 1.0), analysis::gustafson_speedup(s, p), 1e-9);
  // Monotone in the growth exponent.
  double prev = 0.0;
  for (double k : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double v = analysis::sun_ni_speedup(s, p, k);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(SpeedupLaws, EffectiveSerialFractionFromModel) {
  const auto machine = tools::nominal_machine_params(sim::system_g());
  model::FtWorkload ft;
  const double s16 = analysis::effective_serial_fraction(machine, ft, 64.0 * 64 * 64, 16);
  EXPECT_GT(s16, 0.0);
  EXPECT_LT(s16, 0.2);  // FT is highly parallel at this size
  // Amdahl with the inverted s must reproduce the model's speedup.
  model::IsoEnergyModel m(machine);
  const double speedup = m.predict_performance(ft.at(64.0 * 64 * 64, 16)).speedup;
  EXPECT_NEAR(analysis::amdahl_speedup(s16, 16), speedup, 1e-6 * speedup);
  EXPECT_DOUBLE_EQ(analysis::effective_serial_fraction(machine, ft, 1e6, 1), 0.0);
}

}  // namespace
