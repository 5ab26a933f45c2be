// Contract tests of the figure rows (bench/figures.hpp), driven in process.
//
// A row's output bytes are a function of its inputs alone: the same at any
// executor budget (--jobs), cold or replayed from a warm result cache, and at
// any fiber-engine width (ISOEE_ENGINE_WORKERS). A warm render starts no
// simulation and no case. The rows checked here are the ones that render in
// under 0.2 s cold; CI runs the same contracts over the slower rows through
// the `figures` binary. Also: the shared flags' range checks, row-name
// resolution and how a failed row fails the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/figures.hpp"
#include "engine_width.hpp"
#include "obs/metrics.hpp"

namespace {

namespace fs = std::filesystem;
using namespace isoee;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("isoee_figures_test_" + name);
  fs::remove_all(dir);
  return dir;
}

const bench::Row& row_named(std::string_view name) {
  for (const bench::Row& row : bench::kRows) {
    if (name == row.name) return row;
  }
  throw std::invalid_argument("no row " + std::string(name));
}

using Files = std::map<std::string, std::string>;  // file name -> bytes

/// Renders `row` at `jobs` on `cache_dir` (empty = cache off) into a fresh
/// `csv_dir` and returns every file it wrote.
Files render(const bench::Row& row, int jobs, const fs::path& cache_dir,
             const fs::path& csv_dir) {
  fs::remove_all(csv_dir);
  {
    bench::Context::Options options;
    options.exec.jobs = jobs;
    options.exec.cache_dir = cache_dir.string();
    options.csv_dir = csv_dir.string();
    options.seed = 42;
    bench::Context ctx(options);
    EXPECT_EQ(row.run(ctx), 0) << row.name;
  }
  Files files;
  for (const fs::directory_entry& entry : fs::directory_iterator(csv_dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

/// The names of the files whose bytes differ between `a` and `b`, or that
/// only one of them has.
std::vector<std::string> differing(const Files& a, const Files& b) {
  std::vector<std::string> names;
  for (const auto& [name, bytes] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != bytes) names.push_back(name);
  }
  for (const auto& [name, bytes] : b) {
    if (a.find(name) == a.end()) names.push_back(name);
  }
  return names;
}

struct Counts {
  std::uint64_t runs_started, cases_started, cache_hits;
};

Counts counts() {
  obs::MetricsRegistry& m = obs::metrics();
  return {m.counter("sim.runs_started").value(), m.counter("exec.cases_started").value(),
          m.counter("exec.cache_hits").value()};
}

class FastRow : public ::testing::TestWithParam<const char*> {};

TEST_P(FastRow, SameBytesAtAnyJobsCacheStateAndEngineWidth) {
  const bench::Row& row = row_named(GetParam());
  const fs::path dir = scratch_dir(row.name);
  const test::EngineWidth one(1);
  const Files reference = render(row, 1, "", dir / "reference");
  ASSERT_FALSE(reference.empty());

  for (const int jobs : {1, 4}) {
    const fs::path cache = dir / ("cache_jobs" + std::to_string(jobs));
    EXPECT_EQ(differing(reference, render(row, jobs, cache, dir / "cold")),
              std::vector<std::string>{})
        << "cold, --jobs " << jobs;
    const Counts before = counts();
    EXPECT_EQ(differing(reference, render(row, jobs, cache, dir / "warm")),
              std::vector<std::string>{})
        << "warm, --jobs " << jobs;
    const Counts after = counts();
    // fig10's power samples are no case payload, so it runs uncached.
    if (std::string_view(row.name) != "fig10_power_trace") {
      EXPECT_EQ(after.runs_started - before.runs_started, 0u) << "warm, --jobs " << jobs;
      EXPECT_EQ(after.cases_started - before.cases_started, 0u) << "warm, --jobs " << jobs;
      EXPECT_GT(after.cache_hits - before.cache_hits, 0u) << "warm, --jobs " << jobs;
    }
  }
  for (const int width : {2, 8}) {
    const test::EngineWidth pinned(width);
    EXPECT_EQ(differing(reference, render(row, 1, "", dir / "width")),
              std::vector<std::string>{})
        << "engine width " << width;
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Rows, FastRow,
                         ::testing::Values("fig07_ep_ee_pf", "fig10_power_trace",
                                           "ablation_gamma", "extension_hetero",
                                           "extension_io"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(FiguresInit, RejectsOutOfRangeNumericFlags) {
  const std::string csv_dir = "--csv-dir=" + scratch_dir("init_range").string();
  std::vector<const bench::Row*> rows;
  for (const char* flag : {"--jobs=-1", "--cache-max-mb=-1", "--flame-interval-us=-1"}) {
    const char* argv[] = {"figures", flag, csv_dir.c_str()};
    EXPECT_EQ(bench::init(3, argv, &rows), nullptr) << flag;
  }
  // The engine width comes from ISOEE_ENGINE_WORKERS; a bad value fails init
  // before any row runs. The variable is read only with no process override.
  const test::EngineWidth no_override(0);
  const test::EngineWorkersEnv bad("-1");
  const char* argv[] = {"figures", csv_dir.c_str()};
  EXPECT_EQ(bench::init(2, argv, &rows), nullptr);
}

TEST(FiguresInit, ResolvesRowNamesAndRejectsUnknownOnes) {
  const fs::path dir = scratch_dir("init_rows");
  const std::string csv_dir = "--csv-dir=" + dir.string();
  std::vector<const bench::Row*> rows;

  const char* typo[] = {"figures", "fig7_ep_ee_pf", csv_dir.c_str()};
  EXPECT_EQ(bench::init(3, typo, &rows), nullptr);
  const char* flag_typo[] = {"figures", "-cache-dir=x", csv_dir.c_str()};
  EXPECT_EQ(bench::init(3, flag_typo, &rows), nullptr);
  // A binary that takes no rows takes no positional at all.
  const char* engine[] = {"engine_throughput", "fig07_ep_ee_pf", csv_dir.c_str()};
  EXPECT_EQ(bench::init(3, engine), nullptr);

  const char* two[] = {"figures", "extension_io", csv_dir.c_str(), "fig07_ep_ee_pf"};
  ASSERT_NE(bench::init(4, two, &rows), nullptr);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_STREQ(rows[0]->name, "extension_io");
  EXPECT_STREQ(rows[1]->name, "fig07_ep_ee_pf");

  const char* all[] = {"figures", csv_dir.c_str()};
  ASSERT_NE(bench::init(2, all, &rows), nullptr);
  ASSERT_EQ(rows.size(), std::size(bench::kRows));
  EXPECT_STREQ(rows.front()->name, "fig02_efficiency");
  EXPECT_STREQ(rows.back()->name, "root_cause");
  fs::remove_all(dir);
}

int g_rows_run = 0;

TEST(FiguresRunRows, AFailedRowFailsTheRunAndTheRestStillRun) {
  const fs::path dir = scratch_dir("run_rows");
  bench::Context::Options options;
  options.csv_dir = dir.string();
  bench::Context ctx(options);
  const bench::Row ok{"ok", [](bench::Context&) {
                        ++g_rows_run;
                        return 0;
                      }};
  const bench::Row rejects{"rejects", [](bench::Context&) {
                             ++g_rows_run;
                             return 2;  // a failed acceptance check, as governor_cap's
                           }};
  const bench::Row throws{"throws", [](bench::Context&) -> int {
                            ++g_rows_run;
                            throw std::runtime_error("boom");
                          }};

  g_rows_run = 0;
  EXPECT_EQ(bench::run_rows(ctx, {&ok, &ok}), 0);
  EXPECT_EQ(bench::run_rows(ctx, {&ok, &rejects, &throws, &ok}), 2);
  EXPECT_EQ(bench::run_rows(ctx, {&throws, &rejects}), 1);
  EXPECT_EQ(g_rows_run, 8);
  fs::remove_all(dir);
}

}  // namespace
