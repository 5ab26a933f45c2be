// Round-trip tests for calibration serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "model/serialize.hpp"

namespace {

using namespace isoee;

model::MachineParams sample_machine() {
  model::MachineParams m;
  m.name = "TestBox";
  m.cpi = 0.5501;
  m.f_ghz = 2.4;
  m.base_ghz = 2.8;
  m.t_m = 7.83e-8;
  m.t_s = 2.5e-6;
  m.t_w = 2.01e-10;
  m.p_sys_idle = 29.0;
  m.dp_c_base = 12.0;
  m.dp_m = 5.0;
  m.dp_io = 1.5;
  m.gamma = 2.1;
  m.poll_factor = 0.7;
  m.f_comm_ghz = 1.6;
  return m;
}

/// One instance of each workload type with every field off its default.
std::vector<std::unique_ptr<model::WorkloadModel>> non_default_workloads() {
  std::vector<std::unique_ptr<model::WorkloadModel>> out;
  auto ep = std::make_unique<model::EpWorkload>();
  ep->alpha = 0.91;
  ep->wc_per_trial = 47.123;
  ep->wm_per_trial = 0.0171;
  ep->dwoc_plogp = 25.5;
  ep->dwom_plogp = 0.75;
  out.push_back(std::move(ep));
  auto ft = std::make_unique<model::FtWorkload>();
  ft->alpha = 0.83;
  ft->iters = 5;
  ft->wc_nlogn = 55.5;
  ft->wc_n = 101.25;
  ft->wm_n = 2.375;
  ft->dwoc_plogp = 1.5;
  ft->dwoc_p = -0.5;
  ft->dwom_plogp = 0.125;
  ft->dwom_p = -3.25;
  out.push_back(std::move(ft));
  auto cg = std::make_unique<model::CgWorkload>();
  cg->alpha = 0.8;
  cg->outer = 10;
  cg->inner = 20;
  cg->nzr = 11.0;
  cg->wc_n = 12345.6;
  cg->wm_n = 789.5;
  cg->dwoc_npm1 = 3.5;
  cg->dwom_npm1 = -0.125;
  out.push_back(std::move(cg));
  auto mg = std::make_unique<model::MgWorkload>();
  mg->alpha = 0.88;
  mg->cycles = 6;
  mg->wc_n = 42.5;
  mg->wm_n = 1.75;
  mg->dwoc_p = 100.0;
  mg->dwom_p = 2.5;
  mg->msgs_p = 12.0;
  mg->bytes_n23p = 536.0;
  mg->duplex = 0.75;
  out.push_back(std::move(mg));
  auto is = std::make_unique<model::IsWorkload>();
  is->alpha = 0.97;
  is->key_bytes = 8.0;
  is->wc_n = 30.5;
  is->wm_n = 1.1;
  is->dwoc_plogp = 2.0;
  is->dwoc_p = 3.0;
  is->dwom_plogp = 0.5;
  is->dwom_p = 0.25;
  out.push_back(std::move(is));
  auto ck = std::make_unique<model::CkptWorkload>();
  ck->alpha = 0.92;
  ck->iterations = 12;
  ck->ckpt_every = 3;
  ck->wc_n = 90.5;
  ck->wm_n = 4.25;
  ck->io_p = 1.5e-3;
  ck->io_n = 4.2e-8;
  out.push_back(std::move(ck));
  auto sw = std::make_unique<model::SweepWorkload>();
  sw->alpha = 0.94;
  sw->sweeps = 3;
  sw->tile_w = 32;
  sw->wc_n = 17.5;
  sw->wm_n = 0.625;
  sw->sec_per_cell = 3.3e-9;
  sw->msgs_pm1 = 48.0;
  sw->bytes_pm1n = 1024.0;
  out.push_back(std::move(sw));
  return out;
}

TEST(Serialize, MachineRoundTrip) {
  const auto m = sample_machine();
  const auto parsed = model::parse_machine(model::serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, m.name);
  EXPECT_DOUBLE_EQ(parsed->cpi, m.cpi);
  EXPECT_DOUBLE_EQ(parsed->f_ghz, m.f_ghz);
  EXPECT_DOUBLE_EQ(parsed->t_m, m.t_m);
  EXPECT_DOUBLE_EQ(parsed->t_w, m.t_w);
  EXPECT_DOUBLE_EQ(parsed->gamma, m.gamma);
  EXPECT_DOUBLE_EQ(parsed->poll_factor, m.poll_factor);
  EXPECT_DOUBLE_EQ(parsed->f_comm_ghz, m.f_comm_ghz);
  // Derived quantities identical after round-trip.
  EXPECT_DOUBLE_EQ(parsed->t_c(), m.t_c());
  EXPECT_DOUBLE_EQ(parsed->dp_c(), m.dp_c());
}

TEST(Serialize, EveryWorkloadTypeRoundTrips) {
  std::vector<std::unique_ptr<model::WorkloadModel>> models;
  {
    auto ep = std::make_unique<model::EpWorkload>();
    ep->wc_per_trial = 47.123;
    models.push_back(std::move(ep));
  }
  {
    auto ft = std::make_unique<model::FtWorkload>();
    ft->wc_nlogn = 55.5;
    ft->dwom_p = -3.25;
    models.push_back(std::move(ft));
  }
  {
    auto cg = std::make_unique<model::CgWorkload>();
    cg->dwom_npm1 = -0.125;
    models.push_back(std::move(cg));
  }
  {
    auto mg = std::make_unique<model::MgWorkload>();
    mg->bytes_n23p = 536.0;
    models.push_back(std::move(mg));
  }
  models.push_back(std::make_unique<model::IsWorkload>());
  {
    auto ck = std::make_unique<model::CkptWorkload>();
    ck->io_n = 4.2e-8;
    models.push_back(std::move(ck));
  }
  {
    auto sw = std::make_unique<model::SweepWorkload>();
    sw->tile_w = 32;
    sw->sec_per_cell = 3.3e-9;
    sw->bytes_pm1n = 1024.0;
    models.push_back(std::move(sw));
  }

  for (const auto& original : models) {
    const std::string text = model::serialize(*original);
    const auto parsed = model::parse_workload(text);
    ASSERT_NE(parsed, nullptr) << text;
    EXPECT_EQ(parsed->name(), original->name());
    // The application vectors must agree at several (n, p) points.
    for (double n : {1e4, 1e6}) {
      for (int p : {1, 4, 32}) {
        const auto a = original->at(n, p);
        const auto b = parsed->at(n, p);
        EXPECT_DOUBLE_EQ(a.W_c, b.W_c) << original->name();
        EXPECT_DOUBLE_EQ(a.W_m, b.W_m);
        EXPECT_DOUBLE_EQ(a.dW_oc, b.dW_oc);
        EXPECT_DOUBLE_EQ(a.dW_om, b.dW_om);
        EXPECT_DOUBLE_EQ(a.M, b.M);
        EXPECT_DOUBLE_EQ(a.B, b.B);
        EXPECT_DOUBLE_EQ(a.T_io, b.T_io);
        EXPECT_DOUBLE_EQ(a.T_idle, b.T_idle);
        EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
      }
    }
  }
}

// Every field of every record, pinned byte for byte: calibration files and
// service payloads written by earlier builds must keep parsing to the same
// values, and new builds must keep writing the same text.
TEST(Serialize, TextIsPinned) {
  EXPECT_EQ(model::serialize(sample_machine()),
            "[machine]\n"
            "name = TestBox\n"
            "cpi = 0.55010000000000003\n"
            "f_ghz = 2.3999999999999999\n"
            "base_ghz = 2.7999999999999998\n"
            "t_m = 7.8300000000000006e-08\n"
            "t_s = 2.5000000000000002e-06\n"
            "t_w = 2.01e-10\n"
            "p_sys_idle = 29\n"
            "dp_c_base = 12\n"
            "dp_m = 5\n"
            "dp_io = 1.5\n"
            "gamma = 2.1000000000000001\n"
            "poll_factor = 0.69999999999999996\n"
            "f_comm_ghz = 1.6000000000000001\n");
  const char* const expected[] = {
      "[workload EP]\n"
      "alpha = 0.91000000000000003\n"
      "wc_per_trial = 47.122999999999998\n"
      "wm_per_trial = 0.017100000000000001\n"
      "dwoc_plogp = 25.5\n"
      "dwom_plogp = 0.75\n",
      "[workload FT]\n"
      "alpha = 0.82999999999999996\n"
      "iters = 5\n"
      "wc_nlogn = 55.5\n"
      "wc_n = 101.25\n"
      "wm_n = 2.375\n"
      "dwoc_plogp = 1.5\n"
      "dwoc_p = -0.5\n"
      "dwom_plogp = 0.125\n"
      "dwom_p = -3.25\n",
      "[workload CG]\n"
      "alpha = 0.80000000000000004\n"
      "outer = 10\n"
      "inner = 20\n"
      "nzr = 11\n"
      "wc_n = 12345.6\n"
      "wm_n = 789.5\n"
      "dwoc_npm1 = 3.5\n"
      "dwom_npm1 = -0.125\n",
      "[workload MG]\n"
      "alpha = 0.88\n"
      "cycles = 6\n"
      "wc_n = 42.5\n"
      "wm_n = 1.75\n"
      "dwoc_p = 100\n"
      "dwom_p = 2.5\n"
      "msgs_p = 12\n"
      "bytes_n23p = 536\n"
      "duplex = 0.75\n",
      "[workload IS]\n"
      "alpha = 0.96999999999999997\n"
      "key_bytes = 8\n"
      "wc_n = 30.5\n"
      "wm_n = 1.1000000000000001\n"
      "dwoc_plogp = 2\n"
      "dwoc_p = 3\n"
      "dwom_plogp = 0.5\n"
      "dwom_p = 0.25\n",
      "[workload CKPT]\n"
      "alpha = 0.92000000000000004\n"
      "iterations = 12\n"
      "ckpt_every = 3\n"
      "wc_n = 90.5\n"
      "wm_n = 4.25\n"
      "io_p = 0.0015\n"
      "io_n = 4.1999999999999999e-08\n",
      "[workload SWEEP]\n"
      "alpha = 0.93999999999999995\n"
      "sweeps = 3\n"
      "tile_w = 32\n"
      "wc_n = 17.5\n"
      "wm_n = 0.625\n"
      "sec_per_cell = 3.3000000000000002e-09\n"
      "msgs_pm1 = 48\n"
      "bytes_pm1n = 1024\n",
  };
  const auto models = non_default_workloads();
  ASSERT_EQ(models.size(), std::size(expected));
  for (std::size_t i = 0; i < models.size(); ++i) {
    EXPECT_EQ(model::serialize(*models[i]), expected[i]);
    const auto parsed = model::parse_workload(expected[i]);
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(model::serialize(*parsed), expected[i]);
  }
}

TEST(Serialize, MissingKeysKeepDefaultsAndUnknownKeysAreIgnored) {
  const auto parsed = model::parse_workload("[workload FT]\nwc_n = 7\nno_such_key = 3\n");
  ASSERT_NE(parsed, nullptr);
  model::FtWorkload expected;
  expected.wc_n = 7.0;
  EXPECT_EQ(model::serialize(*parsed), model::serialize(expected));
}

TEST(Serialize, MalformedInputsRejected) {
  EXPECT_FALSE(model::parse_machine("").has_value());
  EXPECT_FALSE(model::parse_machine("[workload FT]\nalpha = 1\n").has_value());
  EXPECT_FALSE(model::parse_machine("[machine\ncpi = 1\n").has_value());
  EXPECT_EQ(model::parse_workload("[machine]\ncpi = 1\n"), nullptr);
  EXPECT_EQ(model::parse_workload("[workload BOGUS]\nalpha = 1\n"), nullptr);
}

TEST(Serialize, IgnoresCommentsAndWhitespace) {
  const std::string text =
      "# a calibration file\n\n  [machine]  \n  cpi =  0.75  \n\n# trailing comment\n";
  const auto parsed = model::parse_machine(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->cpi, 0.75);
}

}  // namespace
