// Deterministic load generator for the what-if query service (src/service).
//
// Replays a seeded request stream — a mix of model-tier predicts, optimize
// and iso_contour queries, and simulation-backed measured predicts drawn from
// a small pool — against either an in-process Service (default) or a running
// isoee_serve over TCP (--connect=HOST:PORT), from --clients concurrent
// client threads. Reports per-endpoint/per-tier throughput and latency
// percentiles, and writes two CSVs:
//
//   service_load_latency.csv  qps, p50/p99 per (method, tier) — host timing,
//                             never diffed
//   service_load_digests.csv  per-request FNV-1a digest of the response's
//                             `result`/`error` fragment — deterministic, so
//                             CI diffs it across reruns and --jobs settings
//
// --verify additionally asserts the serving invariants end to end:
//   * N identical concurrent cold measured queries execute exactly 1
//     simulation (coalescing / warm-cache short-circuit, observed through
//     sim.runs_started via the stats endpoint);
//   * a warm rerun of every measured query answers 100% from the cache tier
//     with byte-identical result fragments;
//   * the `metrics` endpoint's service.latency_s.<method>.<tier> histograms
//     are well formed: cumulative bucket counts non-decreasing in le order,
//     the +Inf bucket equal to _count, and every method that appeared in the
//     stream has at least one family;
//   * the `stats` endpoint reports model_health "ok" — clean traffic against
//     an unperturbed model must never trip the drift watchdog;
//   * optionally (--assert-p99-ms) the model tier's p99 stays under a bound.
//
// Exits nonzero on any violated invariant, so CI can gate on it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>

#include "exec/codec.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace isoee;

// --- transports ------------------------------------------------------------

/// One request/response exchange. Implementations are used from exactly one
/// client thread each.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string send(const std::string& line) = 0;
};

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(service::Service& service) : service_(service) {}
  std::string send(const std::string& line) override { return service_.handle_line(line); }

 private:
  service::Service& service_;
};

class TcpTransport final : public Transport {
 public:
  TcpTransport(const std::string& host, int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("bad --connect address " + host);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("cannot connect to " + host + ":" + std::to_string(port));
    }
  }
  ~TcpTransport() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string send(const std::string& line) override {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      if (n <= 0) throw std::runtime_error("short write to server");
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return response;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- request stream --------------------------------------------------------

struct GeneratedRequest {
  std::string method;  // for reporting buckets
  std::string line;
};

const char* kMachines[] = {"system_g", "dori"};
const char* kApps[] = {"EP", "FT", "CG", "IS"};

/// The measured-query pool: small, fast simulation points reused across the
/// stream so the cache warms and identical in-flight queries can coalesce.
std::vector<std::string> measured_pool() {
  std::vector<std::string> pool;
  for (int i = 0; i < 4; ++i) {
    const double n = 40000.0 * (i + 1);
    const int p = 1 << (i % 3);  // 1, 2, 4
    pool.push_back(
        R"({"machine":"system_g","app":"EP","n":)" + service::json_num(n) +
        R"(,"p":)" + std::to_string(p) + R"(,"measured":true})");
  }
  return pool;
}

GeneratedRequest generate(std::uint64_t seed, std::uint64_t index) {
  util::Xoshiro256 rng(exec::case_seed(seed, index));
  const double roll = rng.uniform();
  GeneratedRequest out;
  const std::string id = std::to_string(index);
  const std::string machine = kMachines[rng() % 2];
  const std::string app = kApps[rng() % 4];
  const double n = 1e5 * std::pow(10.0, 3.0 * rng.uniform());  // 1e5 .. 1e8
  const int p = 1 << (rng() % 9);                              // 1 .. 256

  if (roll < 0.70) {
    out.method = "predict";
    out.line = R"({"id":)" + id + R"(,"method":"predict","params":{"machine":")" + machine +
               R"(","app":")" + app + R"(","n":)" + service::json_num(n) + R"(,"p":)" +
               std::to_string(p) + "}}";
  } else if (roll < 0.80) {
    const bool cap = (rng() % 2) == 0;
    out.method = "optimize";
    out.line = R"({"id":)" + id + R"(,"method":"optimize","params":{"machine":")" + machine +
               R"(","app":")" + app + R"(","n":)" + service::json_num(n) +
               R"(,"objective":")" +
               (cap ? "min_time_under_cap" : "min_energy_under_deadline") + "\"," +
               (cap ? R"("cap_w":)" + service::json_num(500.0 + 4000.0 * rng.uniform())
                    : R"("deadline_s":)" + service::json_num(0.05 + rng.uniform())) +
               "}}";
  } else if (roll < 0.90) {
    // ps fixed small so the contour bisection stays cheap.
    out.method = "iso_contour";
    out.line = R"({"id":)" + id + R"(,"method":"iso_contour","params":{"machine":")" +
               machine + R"(","app":")" + app + R"(","target_ee":)" +
               service::json_num(0.3 + 0.6 * rng.uniform()) + R"(,"ps":[2,4,8,16]}})";
  } else {
    static const std::vector<std::string> pool = measured_pool();
    out.method = "measured";
    out.line = R"({"id":)" + id + R"(,"method":"predict","params":)" +
               pool[rng() % pool.size()] + "}";
  }
  return out;
}

// --- response accounting ---------------------------------------------------

struct Sample {
  std::string method;
  std::string tier;  // "model" | "cache" | "sim" | "error"
  double latency_s = 0.0;
  std::uint64_t digest = 0;  // FNV-1a of the result/error fragment
  std::string fragment;
};

/// Extracts the part of the response that must be deterministic: everything
/// from `"result":` / `"error":` on (tier and coalesced are excluded — they
/// depend on what raced ahead).
std::string stable_fragment(const std::string& response) {
  std::size_t pos = response.find("\"result\":");
  if (pos == std::string::npos) pos = response.find("\"error\":");
  return pos == std::string::npos ? response : response.substr(pos);
}

std::string tier_of(const std::string& response) {
  const std::size_t pos = response.find("\"tier\":\"");
  if (pos == std::string::npos) return "error";
  const std::size_t start = pos + 8;
  return response.substr(start, response.find('"', start) - start);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[idx];
}

std::uint64_t stats_runs_started(Transport& transport) {
  const std::string response = transport.send(R"({"method":"stats"})");
  const util::JsonValue doc = util::parse_json(response);
  const util::JsonValue* result = doc.find("result");
  const util::JsonValue* runs = result ? result->find("runs_started") : nullptr;
  if (runs == nullptr) throw std::runtime_error("stats response missing runs_started");
  return static_cast<std::uint64_t>(runs->number);
}

int fail(const char* what) {
  std::fprintf(stderr, "service_load: VERIFY FAILED: %s\n", what);
  return 1;
}

// --- metrics-endpoint verification ----------------------------------------

/// One latency-histogram family reassembled from the metrics snapshot:
/// cumulative bucket counts keyed by le bound (+Inf = infinity), plus the
/// family's _count row.
struct HistogramFamily {
  std::vector<std::pair<double, std::uint64_t>> buckets;  // (le, cumulative)
  std::uint64_t count = 0;
  bool have_count = false;
};

/// Groups the `metrics` response's service.latency_s.* rows into families.
/// Row names follow MetricsRegistry::snapshot(): `<family>_bucket{le="X"}`,
/// `<family>_sum`, `<family>_count`.
std::map<std::string, HistogramFamily> latency_families(Transport& transport) {
  const std::string response = transport.send(R"({"method":"metrics"})");
  const util::JsonValue doc = util::parse_json(response);
  const util::JsonValue* result = doc.find("result");
  if (result == nullptr || !result->is(util::JsonValue::Type::kObject)) {
    throw std::runtime_error("metrics response has no result object");
  }
  std::map<std::string, HistogramFamily> families;
  const std::string prefix = "service.latency_s.";
  for (const auto& [name, value] : result->object) {
    if (name.rfind(prefix, 0) != 0) continue;
    const util::JsonValue* v = value.find("value");
    const double num = v != nullptr ? v->number : 0.0;
    if (const std::size_t b = name.find("_bucket{le=\""); b != std::string::npos) {
      const std::size_t start = b + 12;
      const std::size_t end = name.find('"', start);
      if (end == std::string::npos) continue;
      const std::string le = name.substr(start, end - start);
      const double bound = le == "+Inf" ? std::numeric_limits<double>::infinity()
                                        : std::strtod(le.c_str(), nullptr);
      families[name.substr(0, b)].buckets.emplace_back(
          bound, static_cast<std::uint64_t>(num));
    } else if (name.size() > 6 && name.rfind("_count") == name.size() - 6) {
      HistogramFamily& fam = families[name.substr(0, name.size() - 6)];
      fam.count = static_cast<std::uint64_t>(num);
      fam.have_count = true;
    }
  }
  for (auto& [name, fam] : families) {
    std::sort(fam.buckets.begin(), fam.buckets.end());
  }
  return families;
}

std::string stats_model_health(Transport& transport) {
  const std::string response = transport.send(R"({"method":"stats"})");
  const util::JsonValue doc = util::parse_json(response);
  const util::JsonValue* result = doc.find("result");
  const util::JsonValue* health = result ? result->find("model_health") : nullptr;
  if (health == nullptr) throw std::runtime_error("stats response missing model_health");
  return health->str;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("deterministic load generator + invariant checker for the query service");
  cli.no_positional()
      .flag("seed", "42", "request-stream seed")
      .flag("requests", "200", "number of generated requests")
      .flag("clients", "4", "concurrent client threads")
      .flag("connect", "", "HOST:PORT of a running isoee_serve (empty = in-process)")
      .flag("jobs", "2", "in-process service's simulation-tier thread budget")
      .flag("max-queue", "64", "in-process service's admission cap")
      .flag("cache-dir", "", "in-process service's result-cache directory")
      .flag("cache-max-mb", "0", "in-process result-cache cap in MiB (0 = unbounded)")
      .flag("csv-dir", "bench_out", "directory for the latency and digest CSVs")
      .flag("verify", "false", "assert coalescing + warm-cache invariants; exit 1 on failure")
      .flag("assert-p99-ms", "0", "fail if model-tier p99 exceeds this many ms (0 = off)")
      .flag("metrics-out", "", "write the metrics snapshot to this .json/.csv file")
      .flag("prom-out", "", "write a Prometheus text exposition snapshot to this file");
  if (!cli.parse(argc, argv)) return 1;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const int requests = static_cast<int>(cli.get_int("requests"));
  const int clients = std::max(1, static_cast<int>(cli.get_int("clients")));

  // Target: in-process service, or a remote isoee_serve.
  std::unique_ptr<service::Service> local;
  std::string host;
  int port = 0;
  const std::string connect = cli.get("connect");
  if (connect.empty()) {
    service::ServiceConfig config;
    config.jobs = static_cast<int>(cli.get_int("jobs"));
    config.max_pending = static_cast<int>(cli.get_int("max-queue"));
    config.cache_dir = cli.get("cache-dir");
    config.cache_max_bytes =
        static_cast<std::uint64_t>(cli.get_int("cache-max-mb")) * (1ull << 20);
    local = std::make_unique<service::Service>(config);
  } else {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect wants HOST:PORT\n");
      return 1;
    }
    host = connect.substr(0, colon);
    port = std::atoi(connect.c_str() + colon + 1);
  }
  auto make_transport = [&]() -> std::unique_ptr<Transport> {
    if (local) return std::make_unique<InProcessTransport>(*local);
    return std::make_unique<TcpTransport>(host, port);
  };

  std::printf("service_load: %d requests from seed %llu, %d clients, target %s\n", requests,
              static_cast<unsigned long long>(seed), clients,
              local ? "in-process" : connect.c_str());

  // --- main stream: strided across clients, results keyed by index ---------
  std::vector<Sample> samples(static_cast<std::size_t>(std::max(requests, 0)));
  std::atomic<bool> client_failed{false};
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        // A transport failure (server gone, connection refused) must exit
        // with a diagnostic, not std::terminate the whole generator.
        try {
          const std::unique_ptr<Transport> transport = make_transport();
          for (int i = c; i < requests; i += clients) {
            const GeneratedRequest req = generate(seed, static_cast<std::uint64_t>(i));
            const auto t0 = std::chrono::steady_clock::now();
            const std::string response = transport->send(req.line);
            const auto t1 = std::chrono::steady_clock::now();
            Sample& s = samples[static_cast<std::size_t>(i)];
            s.method = req.method;
            s.tier = tier_of(response);
            s.latency_s = std::chrono::duration<double>(t1 - t0).count();
            s.fragment = stable_fragment(response);
            s.digest = exec::fnv1a(s.fragment);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "service_load: client %d: %s\n", c, e.what());
          client_failed.store(true);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  if (client_failed.load()) return 1;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  // --- report + CSVs --------------------------------------------------------
  std::map<std::pair<std::string, std::string>, std::vector<double>> buckets;
  for (const Sample& s : samples) buckets[{s.method, s.tier}].push_back(s.latency_s);

  util::Table latency({"method", "tier", "count", "p50_ms", "p99_ms"});
  std::printf("%d requests in %.3fs (%.0f qps)\n", requests, wall_s,
              wall_s > 0 ? requests / wall_s : 0.0);
  for (const auto& [key, lats] : buckets) {
    const double p50 = percentile(lats, 0.50) * 1e3;
    const double p99 = percentile(lats, 0.99) * 1e3;
    std::printf("  %-11s %-6s n=%-5zu p50=%8.3fms p99=%8.3fms\n", key.first.c_str(),
                key.second.c_str(), lats.size(), p50, p99);
    latency.add_row({key.first, key.second, std::to_string(lats.size()),
                     service::json_num(p50), service::json_num(p99)});
  }
  util::Table digests({"index", "method", "digest"});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    digests.add_row({std::to_string(i), samples[i].method,
                     exec::encode_u64(samples[i].digest)});
  }
  const std::string csv_dir = cli.get("csv-dir");
  std::error_code ec;
  std::filesystem::create_directories(csv_dir, ec);
  if (latency.write_csv(csv_dir + "/service_load_latency.csv")) {
    std::printf("[csv] %s/service_load_latency.csv\n", csv_dir.c_str());
  }
  if (digests.write_csv(csv_dir + "/service_load_digests.csv")) {
    std::printf("[csv] %s/service_load_digests.csv\n", csv_dir.c_str());
  }

  int rc = 0;

  // The whole verify pass talks to the server from the main thread too; any
  // transport failure is a verification failure, not a terminate.
  if (cli.get_bool("verify")) try {
    // Invariant 1: N identical concurrent cold measured queries -> exactly
    // one simulation. The probe point is distinct from the pool, so it is
    // cold even after the main stream.
    const std::string probe =
        R"({"id":"probe","method":"predict","params":{"machine":"system_g","app":"EP",)"
        R"("n":123456,"p":2,"measured":true}})";
    {
      const std::unique_ptr<Transport> monitor = make_transport();
      const std::uint64_t runs_before = stats_runs_started(*monitor);
      const int volley = std::max(2, clients);
      std::vector<std::string> responses(static_cast<std::size_t>(volley));
      // In process, a gate holds the executor's whole host-thread budget
      // until every query but the first has joined its run, so the check
      // cannot race the first simulation finishing. Over --connect the
      // executor is out of reach and only the barrier below narrows the
      // window (docs/SERVICE.md).
      std::unique_ptr<exec::BudgetGate> gate;
      if (local) gate = std::make_unique<exec::BudgetGate>(local->executor());
      std::atomic<int> arrived{0};
      std::mutex mu;
      std::condition_variable cv;
      std::vector<std::thread> threads;
      for (int c = 0; c < volley; ++c) {
        threads.emplace_back([&, c] {
          // A failed client must still pass the barrier (or peers would wait
          // forever) and leaves its response empty, which the checks below
          // flag; it must never std::terminate the generator.
          std::unique_ptr<Transport> transport;
          try {
            transport = make_transport();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "service_load: verify client %d: %s\n", c, e.what());
          }
          {
            // Barrier: maximize the overlap window so coalescing (not just
            // the warm cache) is exercised.
            std::unique_lock<std::mutex> lock(mu);
            if (++arrived == volley) {
              cv.notify_all();
            } else {
              cv.wait(lock, [&] { return arrived == volley; });
            }
          }
          if (!transport) return;
          try {
            responses[static_cast<std::size_t>(c)] = transport->send(probe);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "service_load: verify client %d: %s\n", c, e.what());
          }
        });
      }
      if (gate && !gate->release_after_joined(static_cast<std::uint64_t>(volley - 1),
                                              std::chrono::seconds(60))) {
        rc = fail("concurrent identical cold queries did not all coalesce in 60 s");
      }
      for (std::thread& t : threads) t.join();
      const std::uint64_t runs_after = stats_runs_started(*monitor);
      std::printf("verify: %d concurrent identical cold queries -> %llu simulation(s)\n",
                  volley, static_cast<unsigned long long>(runs_after - runs_before));
      if (runs_after - runs_before != 1) {
        rc = fail("concurrent identical cold queries did not coalesce to 1 simulation");
      }
      for (const std::string& r : responses) {
        if (stable_fragment(r) != stable_fragment(responses[0])) {
          rc = fail("coalesced responses disagree");
        }
        if (r.find("\"ok\":true") == std::string::npos) {
          rc = fail("coalesced volley response not ok");
        }
      }
    }

    // Invariant 2: a warm rerun of every measured query is 100% cache tier
    // with byte-identical fragments. (Needs a cache; skipped without one.)
    const bool have_cache = !connect.empty() || !cli.get("cache-dir").empty();
    if (have_cache) {
      const std::unique_ptr<Transport> monitor = make_transport();
      const std::uint64_t runs_before = stats_runs_started(*monitor);
      const std::unique_ptr<Transport> transport = make_transport();
      std::size_t rerun = 0;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].method != "measured") continue;
        const GeneratedRequest req = generate(seed, static_cast<std::uint64_t>(i));
        const std::string response = transport->send(req.line);
        ++rerun;
        if (tier_of(response) != "cache") {
          rc = fail("warm measured rerun missed the cache tier");
        }
        if (stable_fragment(response) != samples[i].fragment) {
          rc = fail("warm measured rerun fragment differs from first answer");
        }
      }
      const std::uint64_t runs_after = stats_runs_started(*monitor);
      std::printf("verify: warm rerun of %zu measured queries -> %llu simulation(s)\n",
                  rerun, static_cast<unsigned long long>(runs_after - runs_before));
      if (runs_after != runs_before) {
        rc = fail("warm measured rerun executed simulations");
      }
    } else {
      std::printf("verify: no cache configured; skipping warm-rerun invariant\n");
    }

    // Invariant 3: the request-telemetry histograms are well formed. Every
    // cumulative bucket sequence must be non-decreasing in le order with the
    // +Inf bucket equal to the family's _count, and every method the stream
    // exercised must have produced at least one (method, tier) family.
    {
      const std::unique_ptr<Transport> transport = make_transport();
      const auto families = latency_families(*transport);
      std::size_t rows = 0;
      for (const auto& [name, fam] : families) {
        if (fam.buckets.empty()) {
          rc = fail("latency family has no buckets");
          continue;
        }
        std::uint64_t prev = 0;
        for (const auto& [le, cum] : fam.buckets) {
          if (cum < prev) rc = fail("latency histogram buckets not monotone");
          prev = cum;
          ++rows;
        }
        if (!std::isinf(fam.buckets.back().first)) {
          rc = fail("latency histogram missing the +Inf bucket");
        }
        if (!fam.have_count || fam.buckets.back().second != fam.count) {
          rc = fail("latency histogram +Inf bucket disagrees with _count");
        }
      }
      std::set<std::string> methods_seen;
      for (const Sample& s : samples) {
        // The pool's "measured" label is a reporting bucket; on the wire it
        // is a predict, which is what the telemetry keys on.
        methods_seen.insert(s.method == "measured" ? "predict" : s.method);
      }
      for (const std::string& method : methods_seen) {
        bool found = false;
        for (const auto& [name, fam] : families) {
          if (name.rfind("service.latency_s." + method + ".", 0) == 0) found = true;
        }
        if (!found) rc = fail("stream method has no latency-histogram family");
      }
      std::printf("verify: %zu latency families (%zu bucket rows) monotone\n",
                  families.size(), rows);
    }

    // Invariant 4: clean traffic never trips the drift watchdog. The stream's
    // measured queries feed (prediction, simulated actual) pairs into
    // obs::DriftMonitor; against an unperturbed model those errors must stay
    // under the degradation threshold.
    {
      const std::unique_ptr<Transport> transport = make_transport();
      const std::string health = stats_model_health(*transport);
      std::printf("verify: model_health = %s\n", health.c_str());
      if (health != "ok") rc = fail("clean run reports degraded model_health");
    }

    const double bound_ms = cli.get_double("assert-p99-ms");
    if (bound_ms > 0) {
      std::vector<double> model_lats;
      for (const Sample& s : samples) {
        if (s.tier == "model") model_lats.push_back(s.latency_s);
      }
      const double p99_ms = percentile(model_lats, 0.99) * 1e3;
      std::printf("verify: model-tier p99 = %.3fms (bound %.3fms, n=%zu)\n", p99_ms,
                  bound_ms, model_lats.size());
      if (p99_ms > bound_ms) rc = fail("model-tier p99 latency exceeds bound");
    }
    if (rc == 0) std::printf("verify: OK\n");
  } catch (const std::exception& e) {
    rc = fail(e.what());
  }

  if (const std::string path = cli.get("metrics-out"); !path.empty()) {
    if (obs::metrics().write(path)) std::printf("[metrics] %s\n", path.c_str());
  }
  if (const std::string path = cli.get("prom-out"); !path.empty()) {
    if (obs::metrics().write_prometheus(path)) std::printf("[prom] %s\n", path.c_str());
  }
  return rc;
}
