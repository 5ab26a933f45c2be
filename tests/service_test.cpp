// Tier-1 tests for src/service: the wire protocol (strict parsing + seeded
// fuzzing over the request grammar), the three-tier answer path (model /
// cache / sim), request coalescing, admission control, the calibrate flow and
// its cache shared with analysis::EnergyStudy, the stdin transport (an
// overlong line included), and the TCP transport over loopback: shutdown
// while a client idles or waits on a reply, no thread per connection (a
// live-thread count with 256 sockets open), and chaos clients (a half line
// then close, a client that vanishes mid-simulation, an unframed flood, lines
// split at arbitrary bytes), each under a watchdog so a hang fails instead of
// wedging the suite.
//
// The sim-tier tests use small EP cases so the whole binary stays in the
// seconds range; the serving-smoke CI job covers the TCP transport and load.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/policy.hpp"
#include "analysis/study.hpp"
#include "exec/codec.hpp"
#include "exec/executor.hpp"
#include "model/isocontour.hpp"
#include "model/serialize.hpp"
#include "model/workloads.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "benchtools/calibrate.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace isoee;
using service::ErrorCode;
using service::Request;
using service::Service;
using service::ServiceConfig;

/// Fresh per-test scratch directory (removed up front so reruns start cold).
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("isoee_service_test_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Parses a response line and returns the JSON document (asserts it parses —
/// every response the service emits must be a valid JSON object).
util::JsonValue parse_response(const std::string& line) {
  util::JsonValue v;
  EXPECT_NO_THROW(v = util::parse_json(line)) << line;
  EXPECT_TRUE(v.is(util::JsonValue::Type::kObject)) << line;
  return v;
}

bool response_ok(const util::JsonValue& v) {
  const auto* ok = v.find("ok");
  return ok != nullptr && ok->is(util::JsonValue::Type::kBool) && ok->boolean;
}

std::string error_code_of(const util::JsonValue& v) {
  const auto* err = v.find("error");
  if (err == nullptr) return "";
  const auto* code = err->find("code");
  return code != nullptr ? code->str : "";
}

std::string tier_of(const util::JsonValue& v) {
  const auto* tier = v.find("tier");
  return tier != nullptr ? tier->str : "";
}

/// The response from `"result":` / `"error":` onward — the tier-independent
/// part that the determinism contract covers (tier/coalesced are the
/// documented race-dependent exception).
std::string stable_fragment(const std::string& line) {
  std::size_t at = line.find("\"result\":");
  if (at == std::string::npos) at = line.find("\"error\":");
  return at == std::string::npos ? line : line.substr(at);
}

// ---------------------------------------------------------------------------
// Protocol: envelope and id echo.
// ---------------------------------------------------------------------------

TEST(Protocol, IdIsEchoedNumberStringNullAndAbsent) {
  Service svc{ServiceConfig{}};
  const std::string base = R"("method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4})";

  EXPECT_EQ(svc.handle_line("{\"id\":7," + base + "}").rfind("{\"id\":7,", 0), 0u);
  EXPECT_EQ(svc.handle_line("{\"id\":\"abc\"," + base + "}").rfind("{\"id\":\"abc\",", 0), 0u);
  EXPECT_EQ(svc.handle_line("{\"id\":null," + base + "}").rfind("{\"id\":null,", 0), 0u);
  EXPECT_EQ(svc.handle_line("{" + base + "}").rfind("{\"id\":null,", 0), 0u);
}

TEST(Protocol, IdSurvivesIntoErrorResponses) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(
      svc.handle_line(R"({"id":41,"method":"predict","params":{"machine":"nope","app":"EP","n":1,"p":4}})"));
  EXPECT_FALSE(response_ok(v));
  ASSERT_NE(v.find("id"), nullptr);
  EXPECT_EQ(v.find("id")->number, 41.0);
  EXPECT_EQ(error_code_of(v), "unknown_machine");
}

TEST(Protocol, GarbageIsAParseError) {
  Service svc{ServiceConfig{}};
  for (const char* line : {"{nope", "[1,2", "tru", "\"unterminated", "{\"a\":}", "}"}) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    EXPECT_EQ(error_code_of(v), "parse_error") << line;
  }
}

TEST(Protocol, NonObjectAndBadEnvelopeAreInvalidRequests) {
  Service svc{ServiceConfig{}};
  const char* cases[] = {
      "[1,2]",                                  // not an object
      "42",                                     // not an object
      "{}",                                     // no method
      R"({"method":7})",                        // method not a string
      R"({"method":"predict","params":[1]})",   // params not an object
      R"({"method":"predict","extra":1,"params":{}})",  // unknown envelope key
  };
  for (const char* line : cases) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    EXPECT_EQ(error_code_of(v), "invalid_request") << line;
  }
}

TEST(Protocol, UnknownMethod) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(R"({"method":"frobnicate"})"));
  EXPECT_EQ(error_code_of(v), "unknown_method");
}

TEST(Protocol, DuplicateKeysAreRejectedAtEveryNestingLevel) {
  Service svc{ServiceConfig{}};
  const char* cases[] = {
      R"({"method":"stats","method":"stats"})",
      R"({"method":"predict","params":{"machine":"system_g","machine":"dori","app":"EP","n":1}})",
  };
  for (const char* line : cases) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    const std::string code = error_code_of(v);
    EXPECT_TRUE(code == "invalid_request" || code == "invalid_params") << line;
  }
}

TEST(Protocol, UnknownParameterNeverFallsBackToADefault) {
  Service svc{ServiceConfig{}};
  // "procs" is a typo for "p": must be invalid_params naming the key, not a
  // silent p=1 answer.
  const auto v = parse_response(svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"procs":8}})"));
  EXPECT_FALSE(response_ok(v));
  EXPECT_EQ(error_code_of(v), "invalid_params");
  EXPECT_NE(v.find("error")->find("message")->str.find("procs"), std::string::npos);
}

TEST(Protocol, TypeAndRangeViolationsAreInvalidParams) {
  Service svc{ServiceConfig{}};
  const char* cases[] = {
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":-1}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":"big"}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":0}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":2.5}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"f_ghz":500}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"measured":1}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"EP","n":1e6,"objective":"max_p","target_ee":1.5}})",
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[1000,"x"]}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"EP","n":1e6,"objective":"nonsense"}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"EP","n":1e6,"objective":"min_time_under_cap"}})",
      R"({"method":"stats","params":{"n":1}})",
  };
  for (const char* line : cases) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    EXPECT_EQ(error_code_of(v), "invalid_params") << line;
  }
}

TEST(Protocol, OversizedArraysAndLinesAreRejected) {
  Service svc{ServiceConfig{}};
  std::string many = R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[)";
  for (int i = 0; i < 100; ++i) {
    if (i != 0) many += ',';
    many += std::to_string(1000 + i);
  }
  many += "]}}";
  EXPECT_EQ(error_code_of(parse_response(svc.handle_line(many))), "invalid_params");

  const std::string huge(service::kMaxLineBytes + 1, ' ');
  const auto v = parse_response(svc.handle_line("{\"method\":\"stats\"}" + huge));
  EXPECT_FALSE(response_ok(v));
  EXPECT_EQ(error_code_of(v), "invalid_request");
}

TEST(Protocol, ParseRequestThrowsOnlyRequestError) {
  // The direct-parser contract behind handle_line's never-throws guarantee.
  const char* lines[] = {"{", "[]", R"({"method":"predict","params":{"n":1}})",
                         R"({"method":"predict"})", "null", ""};
  for (const char* line : lines) {
    try {
      (void)service::parse_request(line);
      ADD_FAILURE() << "expected RequestError for: " << line;
    } catch (const service::RequestError&) {
    } catch (...) {
      ADD_FAILURE() << "non-RequestError exception for: " << line;
    }
  }
}

// ---------------------------------------------------------------------------
// Model tier: answers match the analytical model directly, byte for byte
// reproducible.
// ---------------------------------------------------------------------------

TEST(ModelTier, PredictMatchesDirectModelEvaluation) {
  Service svc{ServiceConfig{}};
  const std::string line =
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":2e6,"p":16}})";
  const auto v = parse_response(svc.handle_line(line));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "model");

  const model::MachineParams mp = tools::nominal_machine_params(sim::system_g());
  const model::EpWorkload ep;
  const double want = model::ee_at(mp, ep, 2e6, 16, mp.base_ghz);
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("EE"), nullptr);
  EXPECT_DOUBLE_EQ(result->find("EE")->number, want);
  EXPECT_DOUBLE_EQ(result->find("p")->number, 16.0);
}

TEST(ModelTier, ResponsesAreByteIdenticalAcrossServicesAndJobs) {
  const char* lines[] = {
      R"({"id":1,"method":"predict","params":{"machine":"system_g","app":"FT","n":4.2e6,"p":16}})",
      R"({"id":2,"method":"optimize","params":{"machine":"dori","app":"CG","n":1e6,"objective":"min_time_under_cap","cap_w":900}})",
      R"({"id":3,"method":"iso_contour","params":{"machine":"system_g","app":"FT","target_ee":0.5,"ps":[2,4,8]}})",
  };
  ServiceConfig one;
  one.jobs = 1;
  ServiceConfig eight;
  eight.jobs = 8;
  Service a{one}, b{eight};
  for (const char* line : lines) {
    const std::string ra = a.handle_line(line);
    EXPECT_EQ(ra, a.handle_line(line)) << line;   // rerun, same service
    EXPECT_EQ(ra, b.handle_line(line)) << line;   // different --jobs
  }
}

TEST(ModelTier, OptimizeMaxPMatchesDirectModel) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(
      R"({"method":"optimize","params":{"machine":"system_g","app":"FT","n":4.2e6,"objective":"max_p","target_ee":0.5,"p_max":512}})"));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "model");

  const model::MachineParams mp = tools::nominal_machine_params(sim::system_g());
  const model::FtWorkload ft;
  const int want = model::max_processors(mp, ft, 4.2e6, mp.base_ghz, 0.5, 512);
  EXPECT_DOUBLE_EQ(v.find("result")->find("p")->number, double(want));
}

// No configuration of CG n=75000 finishes in 0.5 s on SystemG: the reply is
// still valid JSON, naming the fastest configuration with feasible=false.
TEST(ModelTier, InfeasibleDeadlineRepliesWithTheFastestConfiguration) {
  Service svc{ServiceConfig{}};
  const std::string line = svc.handle_line(
      R"({"method":"optimize","params":{"machine":"system_g","app":"CG","n":75000,"objective":"min_energy_under_deadline","deadline_s":0.5}})");
  const util::JsonValue v = util::parse_json(line);
  ASSERT_TRUE(response_ok(v)) << line;
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("feasible"), nullptr);
  EXPECT_FALSE(result->find("feasible")->boolean);
  for (const auto& [key, value] : result->object) {
    if (value.is(util::JsonValue::Type::kNumber)) {
      EXPECT_TRUE(std::isfinite(value.number)) << key;
    }
  }
  EXPECT_GT(result->find("time_s")->number, 0.5);

  const model::MachineParams mp = tools::nominal_machine_params(sim::system_g());
  const model::CgWorkload cg;
  std::vector<int> ps;
  for (int p = 2; p <= std::min(sim::system_g().total_cores(), 1024); p *= 2) ps.push_back(p);
  double fastest = std::numeric_limits<double>::infinity();
  for (const auto& c :
       analysis::enumerate_configs(mp, cg, 75000, ps, sim::system_g().cpu.gears_ghz)) {
    fastest = std::min(fastest, c.time_s);
  }
  EXPECT_DOUBLE_EQ(result->find("time_s")->number, fastest);
}

// JSON has no inf or nan: a prediction whose EEF overflows (a vanishing
// problem size on a thousand ranks) replies with null, and the reply parses.
TEST(ModelTier, NonFiniteNumbersRenderAsNull) {
  Service svc{ServiceConfig{}};
  const std::string line = svc.handle_line(
      R"({"method":"predict","params":{"machine":"dori","app":"FT","n":1e-300,"p":1024}})");
  util::JsonValue v;
  ASSERT_NO_THROW(v = util::parse_json(line)) << line;
  ASSERT_TRUE(response_ok(v)) << line;
  const auto* eef = v.find("result")->find("EEF");
  ASSERT_NE(eef, nullptr) << line;
  EXPECT_TRUE(eef->is(util::JsonValue::Type::kNull)) << line;
}

TEST(ModelTier, IsoContourMatchesDirectModel) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(
      R"({"method":"iso_contour","params":{"machine":"system_g","app":"FT","target_ee":0.6,"ps":[2,4,8,16]}})"));
  ASSERT_TRUE(response_ok(v));

  const model::MachineParams mp = tools::nominal_machine_params(sim::system_g());
  const model::FtWorkload ft;
  const std::vector<int> ps = {2, 4, 8, 16};
  const auto want = model::iso_ee_contour(mp, ft, 0.6, ps, mp.base_ghz, 1e2, 1e10);
  const auto* points = v.find("result")->find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(points->array[i].find("p")->number, double(want[i].p));
    EXPECT_DOUBLE_EQ(points->array[i].find("n")->number, want[i].n);
  }
}

TEST(ModelTier, UncalibratedAppsWithoutStockCoefficientsAreNotCalibrated) {
  Service svc{ServiceConfig{}};
  for (const char* app : {"MG", "CKPT", "SWEEP"}) {
    const auto v = parse_response(svc.handle_line(
        std::string(R"({"method":"predict","params":{"machine":"dori","app":")") + app +
        R"(","n":1e6,"p":4}})"));
    EXPECT_FALSE(response_ok(v)) << app;
    EXPECT_EQ(error_code_of(v), "not_calibrated") << app;
  }
}

/// A 64-p iso_contour line in perfbench's service_mix shape (ps = offset +
/// stride * k).
std::string contour_line(const char* machine, const char* app, double target_ee,
                         int offset, int stride) {
  std::string ps;
  for (int k = 0; k < 64; ++k) {
    if (k != 0) ps += ',';
    ps += std::to_string(offset + stride * k);
  }
  return std::string(R"({"method":"iso_contour","params":{"machine":")") + machine +
         R"(","app":")" + app + R"(","target_ee":)" + service::json_num(target_ee) +
         R"(,"ps":[)" + ps + "]}}";
}

// Golden bytes: FNV-1a of each model-tier result fragment (and of one
// calibrate reply, whose texts print through model::serialize), recorded
// before the solver and number formatting were rewritten for speed. Any
// changed byte in an answer fails here.
TEST(ModelTier, ResponsesAreByteIdenticalToParent) {
  struct Golden {
    std::string line;
    std::uint64_t fnv;
  };
  const Golden golden[] = {
      {R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":2e6,"p":16}})",
       0x99904e843013db06ULL},
      {R"({"method":"predict","params":{"machine":"dori","app":"FT","n":4.2e6,"p":32,"f_ghz":1.6}})",
       0x9207ffae6d9da911ULL},
      {R"({"method":"predict","params":{"machine":"system_g","app":"CG","n":75000,"p":64}})",
       0xcceecaacf0064241ULL},
      {R"({"method":"predict","params":{"machine":"dori","app":"IS","n":3.3e7,"p":8}})",
       0xcb9b2ca45854a96dULL},
      {R"({"method":"predict","params":{"machine":"dori","app":"FT","n":1e-300,"p":1024}})",
       0x9e72eeba2f29446dULL},
      {R"({"method":"optimize","params":{"machine":"dori","app":"CG","n":1e6,"objective":"min_time_under_cap","cap_w":900}})",
       0x234759373d7a8549ULL},
      {R"({"method":"optimize","params":{"machine":"system_g","app":"FT","n":2.1e6,"objective":"min_energy_under_deadline","deadline_s":0.7}})",
       0xa0c0d31c85631c24ULL},
      {R"({"method":"optimize","params":{"machine":"system_g","app":"FT","n":4.2e6,"objective":"max_p","target_ee":0.5,"p_max":512}})",
       0xf64848b1c42acd06ULL},
      {R"({"method":"optimize","params":{"machine":"dori","app":"EP","n":5e7,"objective":"best_f_ee","p":16}})",
       0xad6d8bb437360fc7ULL},
      {R"({"method":"optimize","params":{"machine":"system_g","app":"IS","n":1e7,"objective":"best_f_energy","p":32}})",
       0x589f92606f544211ULL},
      {contour_line("system_g", "EP", 0.95, 1, 1), 0xb7a70a5587242c05ULL},
      {contour_line("system_g", "FT", 0.5, 3, 2), 0x09ecc687f14d53c1ULL},
      {contour_line("system_g", "CG", 0.35, 2, 3), 0xc3f374e5031a2467ULL},
      {contour_line("system_g", "IS", 0.7, 8, 4), 0x9a9959f5ae9386b4ULL},
      {contour_line("dori", "EP", 0.99, 5, 1), 0xd23ab9d3b8022206ULL},
      {contour_line("dori", "FT", 0.62, 4, 3), 0x3bfc7549a6a78c70ULL},
      {contour_line("dori", "CG", 0.2, 7, 2), 0x6b270d56d1858ec4ULL},
      {contour_line("dori", "IS", 0.45, 6, 4), 0xc71d441ad5377df3ULL},
      {R"({"method":"iso_contour","params":{"machine":"dori","app":"CG","target_ee":0.4,"ps":[2,3,5,8,13,21,34,55],"n_lo":3000,"n_hi":5e8}})",
       0xeb3aab2358f219f0ULL},
      {R"({"method":"iso_contour","params":{"machine":"system_g","app":"FT","target_ee":0.9999,"ps":[64,128,256]}})",
       0x674a371787e88f27ULL},
      {R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2]}})",
       0x86a173877c8882f2ULL},
  };
  Service svc{ServiceConfig{}};
  for (const Golden& g : golden) {
    const std::string response = svc.handle_line(g.line);
    ASSERT_TRUE(response_ok(parse_response(response))) << response;
    const std::uint64_t got = exec::fnv1a(stable_fragment(response));
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llxULL", static_cast<unsigned long long>(got));
    EXPECT_EQ(got, g.fnv) << g.line << "\n  got " << hex << " for " << response;
  }
}

// ---------------------------------------------------------------------------
// Sim and cache tiers.
// ---------------------------------------------------------------------------

/// A small measured-predict line (full simulation, single case).
std::string measured_line(double n, int p) {
  return R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":)" +
         std::to_string(n) + ",\"p\":" + std::to_string(p) + ",\"measured\":true}}";
}

TEST(SimTier, MeasuredPredictGoesSimThenCacheAndIsByteStable) {
  const std::string dir = scratch_dir("sim_then_cache");
  ServiceConfig config;
  config.cache_dir = dir;
  std::string first;
  {
    Service svc{config};
    first = svc.handle_line(measured_line(20000, 2));
    EXPECT_EQ(tier_of(parse_response(first)), "sim");
  }
  // A fresh service over the same cache answers warm: no simulation runs.
  Service svc{config};
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const std::string second = svc.handle_line(measured_line(20000, 2));
  EXPECT_EQ(tier_of(parse_response(second)), "cache");
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  EXPECT_EQ(stable_fragment(first), stable_fragment(second));
}

TEST(SimTier, IdenticalConcurrentColdQueriesCoalesceIntoOneSimulation) {
  ServiceConfig config;
  config.jobs = 2;
  Service svc{config};
  constexpr int kClients = 4;
  const std::string line = measured_line(24000, 2);

  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  std::vector<std::string> responses(kClients);
  {
    // The gate holds the whole host-thread budget, so the first query stays
    // in flight until every other one has joined its run.
    exec::BudgetGate gate(svc.executor());
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] { responses[i] = svc.handle_line(line); });
    }
    EXPECT_TRUE(gate.release_after_joined(kClients - 1, std::chrono::seconds(60)));
    for (auto& t : clients) t.join();
  }

  EXPECT_EQ(sim::Engine::total_runs_started() - runs_before, 1u)
      << "N identical in-flight queries must share one simulation";
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(response_ok(parse_response(responses[i])));
    EXPECT_EQ(stable_fragment(responses[i]), stable_fragment(responses[0]));
  }
}

TEST(SimTier, AdmissionControlRejectsWhenPendingCapIsZero) {
  ServiceConfig config;
  config.max_pending = 0;
  Service svc{config};
  const auto v = parse_response(svc.handle_line(measured_line(20000, 2)));
  EXPECT_FALSE(response_ok(v));
  EXPECT_EQ(error_code_of(v), "overloaded");
  // The model tier does not pass through the admission controller.
  const auto m = parse_response(svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})"));
  EXPECT_TRUE(response_ok(m));
  EXPECT_EQ(tier_of(m), "model");
}

TEST(SimTier, CalibrateFitsInstallsAndWarmRerunsFromCache) {
  const std::string dir = scratch_dir("calibrate");
  ServiceConfig config;
  config.cache_dir = dir;
  config.jobs = 2;
  const std::string cal_line =
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2]}})";
  const std::string predict_line =
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":8,"calibrated":true}})";

  std::string first;
  std::string predicted;
  {
    Service svc{config};
    // Before calibration, calibrated:true has nothing to resolve.
    EXPECT_EQ(error_code_of(parse_response(svc.handle_line(predict_line))),
              "not_calibrated");
    first = svc.handle_line(cal_line);
    const auto v = parse_response(first);
    ASSERT_TRUE(response_ok(v)) << first;
    EXPECT_EQ(tier_of(v), "sim");
    EXPECT_GE(v.find("result")->find("samples")->number, 3.0);
    // Fitted state is now installed: the calibrated predict is a model-tier
    // answer (no further simulation).
    const std::uint64_t runs_before = sim::Engine::total_runs_started();
    predicted = svc.handle_line(predict_line);
    EXPECT_EQ(tier_of(parse_response(predicted)), "model");
    EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  }

  // A fresh service re-calibrates entirely from the warm cache, reproducing
  // both the calibration payload and the downstream prediction byte for byte.
  Service svc{config};
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const std::string second = svc.handle_line(cal_line);
  EXPECT_EQ(tier_of(parse_response(second)), "cache");
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  EXPECT_EQ(stable_fragment(first), stable_fragment(second));
  EXPECT_EQ(stable_fragment(predicted), stable_fragment(svc.handle_line(predict_line)));
}

/// An EP study with its own executor over cache directory `dir`, standing in
/// for a figure driver run as a separate process on the same directory.
struct DirStudy {
  exec::Executor executor;
  analysis::EnergyStudy study;
  explicit DirStudy(const std::string& dir)
      : executor({2, dir, 0}),
        study(sim::system_g(), analysis::make_adapter(npb::EpConfig()), true, executor) {}
};

// EnergyStudy and the service build calibration from the same analysis
// cases, so either one warms the other's cache directory (docs/SERVICE.md).
TEST(SimTier, StudyAndServiceShareCalibrationCache) {
  const double ns[] = {20000, 40000};
  const int ps[] = {2};
  const std::string cal_line =
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2]}})";
  const auto make_study = [](const std::string& dir) {
    return std::make_unique<DirStudy>(dir);
  };
  const auto expect_same_fit = [](const util::JsonValue& response,
                                   const analysis::EnergyStudy& study) {
    const auto* result = response.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("machine_params")->str, model::serialize(study.machine_params()));
    EXPECT_EQ(result->find("workload")->str, model::serialize(study.workload()));
  };
  ServiceConfig config;
  config.jobs = 2;

  // Study first: the service answers from the cache tier.
  config.cache_dir = scratch_dir("share_study_first");
  const auto study = make_study(config.cache_dir);
  study->study.calibrate(ns, ps);
  {
    Service svc{config};
    const std::uint64_t runs_before = sim::Engine::total_runs_started();
    const auto v = parse_response(svc.handle_line(cal_line));
    ASSERT_TRUE(response_ok(v));
    EXPECT_EQ(tier_of(v), "cache");
    EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
    expect_same_fit(v, study->study);
  }

  // Service first: the study starts no simulation.
  config.cache_dir = scratch_dir("share_service_first");
  Service svc{config};
  const auto v = parse_response(svc.handle_line(cal_line));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "sim");
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const auto warm = make_study(config.cache_dir);
  warm->study.calibrate(ns, ps);
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  expect_same_fit(v, warm->study);
}

// EnergyStudy::validate and the measured predict run the same
// analysis::measure_case, so either one answers the other's point from the
// cache (docs/SERVICE.md).
TEST(SimTier, StudyAndServiceShareMeasurements) {
  const std::string predict_line =
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":30000,"p":2,"measured":true}})";
  const auto make_study = [](const std::string& dir) {
    const double ns[] = {20000, 40000};
    const int ps[] = {2};
    auto study = std::make_unique<DirStudy>(dir);
    study->study.calibrate(ns, ps);
    return study;
  };
  const auto expect_same_point = [](const util::JsonValue& response,
                                    const analysis::ValidationPoint& point) {
    const auto* result = response.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("n")->number, point.n);
    EXPECT_EQ(result->find("energy_j")->number, point.actual_j);
    EXPECT_EQ(result->find("time_s")->number, point.actual_s);
  };
  ServiceConfig config;
  config.jobs = 2;

  // Study first: the service answers from the cache tier.
  config.cache_dir = scratch_dir("measure_study_first");
  const analysis::ValidationPoint point =
      make_study(config.cache_dir)->study.validate(30000, 2);
  {
    Service svc{config};
    const std::uint64_t runs_before = sim::Engine::total_runs_started();
    const auto v = parse_response(svc.handle_line(predict_line));
    ASSERT_TRUE(response_ok(v));
    EXPECT_EQ(tier_of(v), "cache");
    EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
    expect_same_point(v, point);
  }

  // Service first: the study's validate starts no simulation.
  config.cache_dir = scratch_dir("measure_service_first");
  Service svc{config};
  const auto v = parse_response(svc.handle_line(predict_line));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "sim");
  const auto study = make_study(config.cache_dir);
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const analysis::ValidationPoint warm = study->study.validate(30000, 2);
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  expect_same_point(v, warm);
}

TEST(SimTier, SimulationPointValidationHappensBeforeAnySimulation) {
  Service svc{ServiceConfig{}};
  // FT and MG require a power-of-two p; p beyond the machine is invalid too.
  const char* cases[] = {
      R"({"method":"predict","params":{"machine":"system_g","app":"FT","n":65536,"p":3,"measured":true}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"MG","n":32768,"p":3,"measured":true}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":20000,"p":65536,"measured":true}})",
  };
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  for (const char* line : cases) {
    EXPECT_EQ(error_code_of(parse_response(svc.handle_line(line))), "invalid_params")
        << line;
  }
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
}

// ---------------------------------------------------------------------------
// Stats, shutdown, and the stdin transport.
// ---------------------------------------------------------------------------

// Standard output of `isoee_serve --stdin` carries the replies and nothing
// else (status lines go to stderr), so a client can parse it line by line.
TEST(Endpoints, ServeStdinWritesOnlyJsonRepliesToStdout) {
  const std::string dir = scratch_dir("serve_stdin");
  fs::create_directories(dir);
  const std::string command = std::string("'") + ISOEE_SERVE_BIN + "' --stdin --metrics-out '" +
                              dir + "/metrics.json' < '" + ISOEE_REQUESTS_DIR +
                              "/power_budget.jsonl' 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, pipe)) > 0;) out.append(buf, got);
  EXPECT_EQ(::pclose(pipe), 0);

  std::istringstream lines(out);
  std::size_t n = 0;
  for (std::string line; std::getline(lines, line); ++n) {
    EXPECT_TRUE(response_ok(parse_response(line))) << "line " << n + 1 << ": " << line;
  }
  EXPECT_EQ(n, 5u);  // one reply per request of the script
  EXPECT_TRUE(fs::exists(dir + "/metrics.json"));
}

TEST(Endpoints, StatsReportsCountersAndRunsStarted) {
  Service svc{ServiceConfig{}};
  (void)svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})");
  const auto v = parse_response(svc.handle_line(R"({"method":"stats"})"));
  ASSERT_TRUE(response_ok(v));
  const auto* result = v.find("result");
  for (const char* key : {"runs_started", "requests", "errors", "tier_model", "tier_cache",
                          "tier_sim", "coalesced", "rejected", "cache_hits",
                          "cache_misses", "cache_stores", "cache_pruned",
                          "engine_ranks_simulated", "engine_events_processed",
                          "engine_rank_seconds_per_sec"}) {
    EXPECT_NE(result->find(key), nullptr) << key;
  }
  EXPECT_GE(result->find("tier_model")->number, 1.0);
}

TEST(Endpoints, ShutdownStopsTheStdinLoopMidStream) {
  Service svc{ServiceConfig{}};
  std::istringstream in(
      R"({"id":1,"method":"stats"})" "\n"
      "\n"  // blank keep-alive line: ignored, not an error
      R"({"id":2,"method":"shutdown"})" "\n"
      R"({"id":3,"method":"stats"})" "\n");
  std::ostringstream out;
  const std::size_t handled = service::run_stdin(svc, in, out);
  EXPECT_EQ(handled, 2u);  // the post-shutdown request is never read
  EXPECT_TRUE(svc.shutdown_requested());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"stopping\":true"), std::string::npos);
  EXPECT_EQ(text.find("\"id\":3"), std::string::npos);
}

/// An input that yields `line_bytes` bytes of 'x', a newline, then `tail`,
/// made up block by block instead of stored, and that notes how many bytes it
/// had handed out when it first found a reply written to `out`.
class OverlongLineSource : public std::streambuf {
 public:
  OverlongLineSource(std::size_t line_bytes, std::string tail, std::ostringstream& out)
      : line_bytes_(line_bytes), tail_(std::move(tail)), out_(out) {}

  /// An upper bound on the bytes read before the first reply was written.
  std::size_t first_reply_at() const { return first_reply_at_; }

 protected:
  int_type underflow() override {
    if (first_reply_at_ == kNever && std::streamoff(out_.tellp()) > 0) first_reply_at_ = served_;
    const std::size_t total = line_bytes_ + 1 + tail_.size();
    const std::size_t n = std::min(sizeof block_, total - served_);
    if (n == 0) return traits_type::eof();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = served_ + i;
      block_[i] = at < line_bytes_ ? 'x' : at == line_bytes_ ? '\n' : tail_[at - line_bytes_ - 1];
    }
    served_ += n;
    setg(block_, block_, block_ + n);
    return traits_type::to_int_type(block_[0]);
  }

 private:
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  std::size_t line_bytes_;
  std::string tail_;
  std::ostringstream& out_;
  char block_[4096];
  std::size_t served_ = 0;
  std::size_t first_reply_at_ = kNever;
};

// Contract: the stdin loop never holds more than a bounded slice of a line. An
// 8 MiB line gets the TCP transport's `invalid_request` reply as soon as it
// passes kMaxLineBytes, the rest is discarded, and the next line is answered.
TEST(Endpoints, StdinOverlongLineIsRejectedWithoutBufferingIt) {
  Service svc{ServiceConfig{}};
  std::ostringstream out;
  OverlongLineSource source(std::size_t{8} << 20, R"({"method":"stats"})" "\n", out);
  std::istream in(&source);
  EXPECT_EQ(service::run_stdin(svc, in, out), 2u);

  std::istringstream replies(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(error_code_of(parse_response(lines[0])), "invalid_request");
  EXPECT_TRUE(response_ok(parse_response(lines[1])));
  EXPECT_LE(source.first_reply_at(), service::kMaxLineBytes + 64 * 1024);
}

// The recipes of docs/SERVICE.md: each request script in docs/requests runs
// through the stdin transport and gets one reply per request line, every one
// a result. A typo'd param or method turns its reply into an error.
class RequestScript : public ::testing::TestWithParam<const char*> {};

TEST_P(RequestScript, EveryReplyIsOk) {
  const std::string path = std::string(ISOEE_REQUESTS_DIR) + "/" + GetParam() + ".jsonl";
  std::ifstream file(path);
  ASSERT_TRUE(file) << path;
  std::stringstream script;
  script << file.rdbuf();
  std::size_t requests = 0;
  for (std::string line; std::getline(script, line);) requests += line.empty() ? 0 : 1;
  script.clear();
  script.seekg(0);

  Service svc{ServiceConfig{}};
  std::ostringstream out;
  EXPECT_EQ(service::run_stdin(svc, script, out), requests);
  std::istringstream replies(out.str());
  std::size_t n = 0;
  for (std::string line; std::getline(replies, line); ++n) {
    EXPECT_TRUE(response_ok(parse_response(line))) << path << " reply " << n + 1 << ": " << line;
  }
  EXPECT_GT(n, 0u);
  EXPECT_EQ(n, requests);
}

INSTANTIATE_TEST_SUITE_P(Recipes, RequestScript,
                         ::testing::Values("calibrate", "power_budget", "scaling_advisor",
                                           "dvfs_explorer"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

/// Connects a blocking TCP client to the loopback server on `port`.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Sends one request line and reads back one response line.
std::string round_trip(int fd, const std::string& request) {
  const std::string line = request + "\n";
  EXPECT_EQ(::write(fd, line.data(), line.size()), static_cast<ssize_t>(line.size()));
  std::string reply;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') reply.push_back(c);
  return reply;
}

TEST(Endpoints, TcpShutdownReturnsWhileAnotherClientIsIdle) {
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::mutex mu;
  std::condition_variable cv;
  bool returned = false;
  std::thread serving([&] {
    server.serve();
    std::lock_guard<std::mutex> lock(mu);
    returned = true;
    cv.notify_all();
  });

  // Client A is served once, then idles with its connection open.
  const int idle = connect_loopback(server.port());
  EXPECT_TRUE(response_ok(parse_response(round_trip(idle, R"({"method":"stats"})"))));
  // Client B asks the server to stop.
  const int admin = connect_loopback(server.port());
  EXPECT_TRUE(response_ok(parse_response(round_trip(admin, R"({"method":"shutdown"})"))));
  ::close(admin);

  bool in_time = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    in_time = cv.wait_for(lock, std::chrono::seconds(2), [&] { return returned; });
  }
  // Closing A after the deadline lets a server that waits on idle clients
  // return too, so a regression fails here instead of hanging the suite.
  ::close(idle);
  serving.join();
  EXPECT_TRUE(in_time) << "serve() waited on an idle client after shutdown";
}

/// Entries of /proc/self/<dir>: "task" counts live threads, "fd" open files.
std::size_t proc_self_entries(const std::string& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/" + dir)) ++n;
  return n;
}

/// Aborts the test binary, naming the test, unless the scope is left within
/// `limit`: a transport regression fails the suite instead of hanging it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit, name = std::string(::testing::UnitTest::GetInstance()
                                                     ->current_test_info()
                                                     ->name())] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s still running after %llds\n", name.c_str(),
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: it uses every member above
};

/// Asks the server to stop over a fresh connection and joins its serve()
/// thread. Returns how long serve() took to return.
std::chrono::duration<double> stop_serving(service::TcpServer& server,
                                           std::thread& serving) {
  const auto start = std::chrono::steady_clock::now();
  const int admin = connect_loopback(server.port());
  EXPECT_TRUE(response_ok(parse_response(round_trip(admin, R"({"method":"shutdown"})"))));
  ::close(admin);
  serving.join();
  return std::chrono::steady_clock::now() - start;
}

// Contract: serve() starts no thread for a connection. Workers are reused and
// a new one starts only when none is idle, so 256 connections held open and
// answered one after another, and then 200 connect/close cycles, grow the
// process by the few workers that served them, not by a thread per socket.
// Counting threads, not address space, keeps malloc arenas out of the count.
TEST(Endpoints, TcpHoldsNoThreadPerConnection) {
  Watchdog watchdog(std::chrono::seconds(120));
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::thread serving([&] { server.serve(); });
  const std::size_t before = proc_self_entries("task");
  constexpr std::size_t kWorkerSlack = 8;

  std::vector<int> held;
  for (int i = 0; i < 256; ++i) {
    held.push_back(connect_loopback(server.port()));
    EXPECT_TRUE(response_ok(parse_response(round_trip(held.back(), R"({"method":"stats"})"))));
  }
  const std::size_t while_held = proc_self_entries("task");
  for (int i = 0; i < 200; ++i) {
    const int fd = connect_loopback(server.port());
    EXPECT_TRUE(response_ok(parse_response(round_trip(fd, R"({"method":"stats"})"))));
    ::close(fd);
  }
  const std::size_t after_cycles = proc_self_entries("task");
  stop_serving(server, serving);
  for (const int fd : held) ::close(fd);

  EXPECT_LE(while_held, before + kWorkerSlack)
      << "threads grew from " << before << " to " << while_held << " with 256 open";
  EXPECT_LE(after_cycles, before + kWorkerSlack)
      << "threads grew from " << before << " to " << after_cycles << " over 200 cycles";
}

TEST(Endpoints, TcpShutdownStillRepliesToARequestInFlight) {
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::mutex mu;
  std::condition_variable cv;
  bool returned = false;
  std::thread serving([&] {
    server.serve();
    std::lock_guard<std::mutex> lock(mu);
    returned = true;
    cv.notify_all();
  });

  // Client A starts a simulation long enough to outlast the accept loop's
  // next shutdown check; wait until it is running before stopping the server.
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const int slow = connect_loopback(server.port());
  const std::string request = measured_line(5e6, 2) + "\n";
  EXPECT_EQ(::write(slow, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sim::Engine::total_runs_started() == runs_before &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int admin = connect_loopback(server.port());
  EXPECT_TRUE(response_ok(parse_response(round_trip(admin, R"({"method":"shutdown"})"))));
  ::close(admin);

  bool in_time = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    in_time = cv.wait_for(lock, std::chrono::seconds(60), [&] { return returned; });
  }
  // A's reply was written before serve() joined its connection thread.
  std::string reply;
  char c = 0;
  while (::read(slow, &c, 1) == 1 && c != '\n') reply.push_back(c);
  ::close(slow);
  serving.join();
  EXPECT_TRUE(in_time) << "serve() did not return after shutdown";
  const auto v = parse_response(reply);
  EXPECT_TRUE(response_ok(v)) << reply;
  EXPECT_EQ(tier_of(v), "sim");
}

TEST(Endpoints, TcpAnswersAThousandPipelinedRequestsInOrder) {
  // 1000 request lines in one write arrive in a few large reads; the server
  // frames every line out of its buffer and answers each one, in order.
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::thread serving([&] { server.serve(); });
  constexpr int kRequests = 1000;
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += "{\"id\":" + std::to_string(i) +
                R"(,"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})" +
                "\n";
  }
  const int fd = connect_loopback(server.port());
  // Replies are read while the requests are still being written, so neither
  // side can stall on a full socket buffer.
  std::thread writer([&] {
    EXPECT_EQ(::write(fd, requests.data(), requests.size()),
              static_cast<ssize_t>(requests.size()));
  });
  std::vector<std::string> replies;
  std::string pending;
  char chunk[4096];
  while (replies.size() < static_cast<std::size_t>(kRequests)) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    pending.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending.find('\n', start)) != std::string::npos; start = nl + 1) {
      replies.push_back(pending.substr(start, nl - start));
    }
    pending.erase(0, start);
  }
  writer.join();
  const int admin = connect_loopback(server.port());
  EXPECT_TRUE(response_ok(parse_response(round_trip(admin, R"({"method":"shutdown"})"))));
  ::close(admin);
  ::close(fd);
  serving.join();

  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRequests));
  EXPECT_TRUE(pending.empty());
  for (int i = 0; i < kRequests; ++i) {
    const auto v = parse_response(replies[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(response_ok(v)) << replies[static_cast<std::size_t>(i)];
    ASSERT_NE(v.find("id"), nullptr);
    EXPECT_EQ(v.find("id")->number, static_cast<double>(i));
  }
}

// Chaos: clients that misbehave at the byte level. Each runs under a
// watchdog, so a transport that hangs fails the suite instead of wedging it.

TEST(Endpoints, TcpChaosHalfLineThenCloseGetsNoReply) {
  Watchdog watchdog(std::chrono::seconds(30));
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::thread serving([&] { server.serve(); });

  const int half = connect_loopback(server.port());
  const std::string partial = R"({"method":"sta)";
  EXPECT_EQ(::write(half, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  ::shutdown(half, SHUT_WR);
  char c = 0;
  EXPECT_EQ(::read(half, &c, 1), 0) << "an unterminated line got a reply";
  ::close(half);

  const int next = connect_loopback(server.port());
  EXPECT_TRUE(response_ok(parse_response(round_trip(next, R"({"method":"stats"})"))));
  ::close(next);
  stop_serving(server, serving);
}

TEST(Endpoints, TcpChaosClientVanishesWhileItsQuerySimulates) {
  Watchdog watchdog(std::chrono::seconds(120));
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::thread serving([&] { server.serve(); });
  const std::size_t fds_before = proc_self_entries("fd");

  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const int gone = connect_loopback(server.port());
  const std::string request = measured_line(5e6, 2) + "\n";
  EXPECT_EQ(::write(gone, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sim::Engine::total_runs_started() == runs_before &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(gone);

  // The reply meets a closed peer: an error for the server, never a SIGPIPE
  // that kills this process. The server then closes its end of the socket.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (proc_self_entries("fd") != fds_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(proc_self_entries("fd"), fds_before)
      << "the vanished client's socket is still open";
  EXPECT_GT(sim::Engine::total_runs_started(), runs_before);

  const int next = connect_loopback(server.port());
  EXPECT_TRUE(response_ok(parse_response(round_trip(next, R"({"method":"stats"})"))));
  ::close(next);
  EXPECT_LT(stop_serving(server, serving).count(), 5.0) << "shutdown was slow";
}

TEST(Endpoints, TcpChaosUnframedFloodGetsOneErrorThenEof) {
  Watchdog watchdog(std::chrono::seconds(30));
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::thread serving([&] { server.serve(); });

  const int fd = connect_loopback(server.port());
  const std::string flood(service::kMaxLineBytes + 1, 'x');
  EXPECT_EQ(::write(fd, flood.data(), flood.size()), static_cast<ssize_t>(flood.size()));
  std::string received;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof chunk)) > 0;) {
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  stop_serving(server, serving);

  ASSERT_EQ(std::count(received.begin(), received.end(), '\n'), 1) << received;
  ASSERT_EQ(received.back(), '\n');
  received.pop_back();
  EXPECT_EQ(error_code_of(parse_response(received)), "invalid_request") << received;
}

TEST(Endpoints, TcpChaosLinesSplitAtArbitraryBytesAreAnsweredInOrder) {
  Watchdog watchdog(std::chrono::seconds(60));
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::thread serving([&] { server.serve(); });

  // CRLF endings and blank keep-alive lines ride along; only requests reply.
  constexpr int kRequests = 200;
  std::string stream;
  for (int i = 0; i < kRequests; ++i) {
    stream += "{\"id\":" + std::to_string(i) +
              R"(,"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})" +
              (i % 3 == 0 ? "\r\n" : "\n") + (i % 7 == 0 ? "\n" : "");
  }
  const int fd = connect_loopback(server.port());
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::thread writer([&] {
    util::Xoshiro256 rng(24);
    for (std::size_t off = 0; off < stream.size();) {
      const std::size_t len = std::min<std::size_t>(1 + rng.below(97), stream.size() - off);
      ASSERT_EQ(::write(fd, stream.data() + off, len), static_cast<ssize_t>(len));
      off += len;
      if (rng.below(4) == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::string> replies;
  std::string pending;
  char chunk[4096];
  while (replies.size() < static_cast<std::size_t>(kRequests)) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    pending.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending.find('\n', start)) != std::string::npos; start = nl + 1) {
      replies.push_back(pending.substr(start, nl - start));
    }
    pending.erase(0, start);
  }
  writer.join();
  ::close(fd);
  stop_serving(server, serving);

  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const auto v = parse_response(replies[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(response_ok(v)) << replies[static_cast<std::size_t>(i)];
    ASSERT_NE(v.find("id"), nullptr);
    EXPECT_EQ(v.find("id")->number, static_cast<double>(i));
  }
}

// ---------------------------------------------------------------------------
// Telemetry endpoints: metrics, model_health in stats, install.
// ---------------------------------------------------------------------------

TEST(Endpoints, MetricsReturnsOneLineSnapshotWithLatencyHistograms) {
  Service svc{ServiceConfig{}};
  (void)svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})");
  const std::string line = svc.handle_line(R"({"id":9,"method":"metrics"})");
  EXPECT_EQ(line.find('\n'), std::string::npos) << "responses must be single lines";
  const auto v = parse_response(line);
  ASSERT_TRUE(response_ok(v));
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  // The predict we just made shows up in its per-method x per-tier histogram
  // (snapshot rows carry le= bucket labels plus _sum/_count).
  const auto* count = result->find("service.latency_s.predict.model_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->find("kind")->str, "histogram");
  EXPECT_GE(count->find("value")->number, 1.0);
  const auto* bucket =
      result->find("service.latency_s.predict.model_bucket{le=\"+Inf\"}");
  ASSERT_NE(bucket, nullptr);
  EXPECT_GE(bucket->find("value")->number, count->find("value")->number);
}

TEST(Endpoints, StatsReportsModelHealthAndDriftCounters) {
  obs::drift().reset();
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(R"({"method":"stats"})"));
  ASSERT_TRUE(response_ok(v));
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("model_health"), nullptr);
  EXPECT_EQ(result->find("model_health")->str, "ok");
  EXPECT_NE(result->find("drift_samples"), nullptr);
  EXPECT_NE(result->find("drift_degraded_keys"), nullptr);
  EXPECT_NE(result->find("drift_max_ewma_abs_err"), nullptr);
}

TEST(Install, RejectsUnknownNamesAndUnparsableTexts) {
  Service svc{ServiceConfig{}};
  const auto code_of = [&](const std::string& line) {
    return error_code_of(parse_response(svc.handle_line(line)));
  };
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"nope","app":"EP","machine_params":"x","workload":"y"}})"),
      "unknown_machine");
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"system_g","app":"NOPE","machine_params":"x","workload":"y"}})"),
      "unknown_app");
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"system_g","app":"EP","machine_params":"not a params text","workload":"y"}})"),
      "invalid_params");
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"system_g","app":"EP"}})"),
      "invalid_params");  // machine_params/workload are required
}

// ---------------------------------------------------------------------------
// Drift watchdog end to end: calibrate -> perturb -> install -> measured
// traffic trips `model_health: degraded`; the unperturbed control stays ok.
// ---------------------------------------------------------------------------

namespace {

/// One measured + calibrated predict: the sim tier produces the actual, the
/// installed calibration produces the prediction, and the pair feeds the
/// global DriftMonitor.
std::string measured_calibrated_line(double n, int p) {
  return R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":)" +
         std::to_string(n) + ",\"p\":" + std::to_string(p) +
         ",\"measured\":true,\"calibrated\":true}}";
}

std::string install_line(const std::string& machine_text, const std::string& workload_text) {
  return R"({"method":"install","params":{"machine":"system_g","app":"EP","machine_params":")" +
         obs::json_escape(machine_text) + R"(","workload":")" +
         obs::json_escape(workload_text) + "\"}}";
}

std::string stats_health(Service& svc) {
  const auto v = parse_response(svc.handle_line(R"({"method":"stats"})"));
  return v.find("result")->find("model_health")->str;
}

}  // namespace

TEST(Drift, PerturbedInstallTripsWatchdogCleanInstallStaysGreen) {
  obs::drift().reset();
  ServiceConfig config;
  config.jobs = 2;
  Service svc{config};

  // Calibrate and keep the serialized model texts from the response.
  const auto cal = parse_response(svc.handle_line(
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2]}})"));
  ASSERT_TRUE(response_ok(cal));
  const std::string machine_text = cal.find("result")->find("machine_params")->str;
  const std::string workload_text = cal.find("result")->find("workload")->str;

  // Control: honest calibration, serial measured traffic past min_samples.
  const auto min_samples = obs::drift().config().min_samples;
  for (std::uint64_t i = 0; i <= min_samples; ++i) {
    ASSERT_TRUE(response_ok(parse_response(svc.handle_line(measured_calibrated_line(20000, 2)))));
  }
  EXPECT_EQ(stats_health(svc), "ok") << "calibrated model must not trip the watchdog";

  // Perturb the calibration: +30% gamma per the drift scenario, plus +50% on
  // the idle floor — gamma only bends the power curve away from the base
  // gear ((f/f0)^gamma == 1 at f == f0), so the idle floor, the dominant
  // power term, is what makes the energy prediction miss deterministically.
  auto perturbed = model::parse_machine(machine_text);
  ASSERT_TRUE(perturbed.has_value());
  perturbed->gamma *= 1.3;
  perturbed->p_sys_idle *= 1.5;
  const auto inst = parse_response(
      svc.handle_line(install_line(model::serialize(*perturbed), workload_text)));
  ASSERT_TRUE(response_ok(inst)) << "install of a re-serialized calibration must succeed";
  EXPECT_TRUE(inst.find("result")->find("installed")->boolean);

  // Same traffic against the perturbed model: every pair lands a >threshold
  // energy error on one key, so the watchdog trips exactly when the key
  // reaches min_samples — deterministically, the feed being serial.
  obs::drift().reset();
  for (std::uint64_t i = 0; i < min_samples; ++i) {
    ASSERT_TRUE(response_ok(parse_response(svc.handle_line(measured_calibrated_line(20000, 2)))));
  }
  EXPECT_EQ(stats_health(svc), "degraded");
  const auto degraded = obs::drift().degraded_keys();
  ASSERT_GE(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].key.machine, "system_g");
  EXPECT_EQ(degraded[0].key.app, "EP");
  EXPECT_EQ(degraded[0].key.quantity, "energy_j");
  EXPECT_GT(degraded[0].ewma_abs, obs::drift().config().threshold);

  // Re-installing the honest calibration and resetting the monitor recovers.
  ASSERT_TRUE(response_ok(
      parse_response(svc.handle_line(install_line(machine_text, workload_text)))));
  obs::drift().reset();
  for (std::uint64_t i = 0; i <= min_samples; ++i) {
    ASSERT_TRUE(response_ok(parse_response(svc.handle_line(measured_calibrated_line(20000, 2)))));
  }
  EXPECT_EQ(stats_health(svc), "ok");
  obs::drift().reset();
}

// ---------------------------------------------------------------------------
// Seeded fuzz over the request grammar (satellite: the parser must map every
// malformed input to exactly one deterministic structured error — no crash,
// no hang, no best-effort guess).
// ---------------------------------------------------------------------------

/// A pool of valid model-tier request lines the mutator starts from.
std::vector<std::string> fuzz_corpus() {
  return {
      R"({"id":1,"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":8}})",
      R"({"id":"q","method":"predict","params":{"machine":"dori","app":"FT","n":4.2e6,"p":16,"f_ghz":2.0}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"CG","n":1e6,"objective":"min_time_under_cap","cap_w":800,"ps":[2,4,8]}})",
      R"({"method":"optimize","params":{"machine":"dori","app":"FT","n":1e7,"objective":"best_f_ee","p":8}})",
      R"({"method":"iso_contour","params":{"machine":"system_g","app":"FT","target_ee":0.5,"ps":[2,4,8,16]}})",
      R"({"method":"calibrate","params":{"machine":"system_g","app":"IS","ns":[100000,200000],"ps":[2,4]}})",
      R"({"method":"stats"})",
  };
}

/// Applies one seeded mutation. Mutations deliberately cover the interesting
/// failure axes: truncation, byte noise, duplicated keys, type swaps, and
/// structural garbage.
std::string mutate(const std::string& base, util::Xoshiro256& rng) {
  const std::uint64_t kind = rng() % 8;
  std::string s = base;
  switch (kind) {
    case 0:  // truncate at a random byte
      return s.substr(0, rng() % (s.size() + 1));
    case 1: {  // overwrite one byte with printable noise
      if (!s.empty()) s[rng() % s.size()] = char(' ' + rng() % 95);
      return s;
    }
    case 2: {  // insert a random byte
      s.insert(s.begin() + long(rng() % (s.size() + 1)), char(' ' + rng() % 95));
      return s;
    }
    case 3: {  // duplicate a random key-value-ish span
      const std::size_t at = s.find("\"", 1 + rng() % (s.size() / 2));
      if (at == std::string::npos || at + 8 >= s.size()) return s + s;
      return s.substr(0, at) + s.substr(at, 8) + s.substr(at);
    }
    case 4: {  // swap a digit for a string opener (type confusion)
      for (std::size_t i = rng() % s.size(); i < s.size(); ++i) {
        if (s[i] >= '0' && s[i] <= '9') {
          s[i] = '"';
          break;
        }
      }
      return s;
    }
    case 5: {  // deep nesting
      std::string nest(1 + rng() % 40, '[');
      return R"({"method":"predict","params":)" + nest;
    }
    case 6:  // concatenate two documents on one line
      return s + s;
    default: {  // splice two corpus entries
      const auto pool = fuzz_corpus();
      const std::string& other = pool[rng() % pool.size()];
      return s.substr(0, rng() % (s.size() + 1)) +
             other.substr(rng() % (other.size() + 1));
    }
  }
}

TEST(Fuzz, EveryMutatedRequestYieldsOneDeterministicStructuredResponse) {
  // max_pending = 0: a mutation that survives as a valid sim-tier request
  // (e.g. the calibrate corpus line unchanged) is rejected instantly and
  // deterministically as `overloaded` instead of running simulations.
  ServiceConfig config;
  config.max_pending = 0;
  Service svc{config};
  util::Xoshiro256 rng(20260807);
  const auto corpus = fuzz_corpus();
  int errors = 0, oks = 0;

  for (int i = 0; i < 1500; ++i) {
    const std::string line = mutate(corpus[rng() % corpus.size()], rng);

    // 1. The parser throws RequestError or nothing — never anything else.
    try {
      (void)service::parse_request(line);
    } catch (const service::RequestError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-RequestError `" << e.what() << "` for: " << line;
    }

    // 2. The service renders exactly one valid JSON response object with a
    //    known error code, deterministically.
    const std::string response = svc.handle_line(line);
    const auto v = parse_response(response);
    ASSERT_NE(v.find("ok"), nullptr) << line;
    if (response_ok(v)) {
      ++oks;
    } else {
      ++errors;
      const std::string code = error_code_of(v);
      EXPECT_TRUE(code == "parse_error" || code == "invalid_request" ||
                  code == "unknown_method" || code == "invalid_params" ||
                  code == "unknown_machine" || code == "unknown_app" ||
                  code == "not_calibrated" || code == "overloaded" ||
                  code == "internal")
          << code << " for: " << line;
    }
    // Replaying the line must reproduce the response byte for byte. (A
    // surviving `stats` request is the one legitimate exception: its result
    // is a live counter snapshot.)
    if (response.find("\"runs_started\":") == std::string::npos) {
      EXPECT_EQ(response, svc.handle_line(line)) << "nondeterministic: " << line;
    }
  }
  // The mutator must actually exercise both sides of the parser.
  EXPECT_GT(errors, 500);
  EXPECT_GT(oks, 20);
}

}  // namespace
