// `service_mix`: a closed loop of two client connections over loopback TCP
// to an in-process service::TcpServer (service jobs=1) replaying a seeded
// request stream; the clients take alternate requests. Per 100-request round:
// 70 model-tier requests (predict, optimize, and iso_contour over 64
// processor counts), 15 cache-tier requests (measured predicts and
// calibrations pre-warmed during set-up) and 15 cold measured predicts at
// unique points, which reach the sim tier without racing the coalescer.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "benchtools/calibrate.hpp"
#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "model/isocontour.hpp"
#include "model/workloads.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace isoee;
namespace fs = std::filesystem;

constexpr int kRoundSize = 100;
constexpr int kClients = 2;

enum class Kind { kPredict, kOptimize, kIsoContour, kCached, kCalibrate, kCold };
constexpr int kKinds = 6;

const char* kind_tier(Kind k) {
  switch (k) {
    case Kind::kCached:
    case Kind::kCalibrate: return "cache";
    case Kind::kCold: return "sim";
    default: return "model";
  }
}

/// Round composition (sums to kRoundSize): 6 + 4 + 60 model-tier, 14 + 1
/// cache-tier, 15 sim-tier. The iso_contour requests sweep 64 processor
/// counts, 60-190 us of model work each, so p50 lands on them and measures
/// the model rather than loopback wake-ups. The service's scheduler has one
/// dispatcher, so a cache hit or a simulation that arrives while the other
/// client's simulation runs waits for it: about 45% of cache hits wait for
/// part of a simulation and 35-45% of simulations for a whole one (~17 ms).
/// p90 lands among the simulations that did not wait and the cache hits that
/// waited longest (8-9 ms), 4 points below the simulations that waited, and
/// qps is set by the sim tier, so both carry that waiting. A quantile inside
/// the cache tier would not be steady: a cache hit takes ~70 us or, when it
/// waits, up to a whole simulation, and the waiting share moves.
constexpr int kPerRound[kKinds] = {6, 4, 60, 14, 1, 15};
/// Processor counts per iso_contour request (the protocol's array limit).
constexpr int kContourPs = 64;

struct Point {
  const char* machine;
  const char* app;
  double n;
  int p;
};

/// Measured points pre-warmed into the cache during set-up.
constexpr Point kWarmPoints[] = {
    {"system_g", "EP", 40000, 2}, {"system_g", "EP", 80000, 4}, {"dori", "EP", 60000, 8},
    {"system_g", "FT", 32768, 4}, {"system_g", "CG", 1400, 2},  {"dori", "CG", 1400, 4}};
/// Calibrations pre-warmed during set-up (small sweeps).
const char* const kWarmCalibrations[] = {
    R"("machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2,4])",
    R"("machine":"dori","app":"CG","ns":[700,1400],"ps":[2,4])"};
/// Shapes of the cold points; each request adds a unique fraction to n. The
/// EP adapter snaps n to whole trials, so every cold answer equals its
/// shape's stored answer, yet each request has its own cache key. The sim
/// tier sets qps, and compute-bound EP keeps it steadier on a shared host
/// than communication-heavy FT or CG simulations.
constexpr Point kColdShapes[] = {
    {"system_g", "EP", 160000, 2}, {"system_g", "EP", 160000, 4},
    {"system_g", "EP", 160000, 8}, {"dori", "EP", 160000, 4},
    {"dori", "EP", 160000, 8}};

const char* const kMachines[] = {"system_g", "dori"};
const char* const kApps[] = {"EP", "FT", "CG", "IS"};
const char* const kObjectives[] = {"min_time_under_cap", "min_energy_under_deadline",
                                   "max_p", "best_f_ee", "best_f_energy"};

std::string measured_params(const Point& pt, double n) {
  return std::string(R"("machine":")") + pt.machine + R"(","app":")" + pt.app +
         R"(","n":)" + service::json_num(n) + R"(,"p":)" + std::to_string(pt.p) +
         R"(,"measured":true)";
}

std::string request(std::uint64_t id, const char* method, const std::string& params) {
  return R"({"id":)" + std::to_string(id) + R"(,"method":")" + method +
         R"(","params":{)" + params + "}}";
}

std::string stable_fragment(const std::string& response) {
  const std::size_t pos = response.find("\"result\":");
  return pos == std::string::npos ? response : response.substr(pos);
}

std::string tier_of(const std::string& response) {
  const std::size_t pos = response.find("\"tier\":\"");
  if (pos == std::string::npos) return "error";
  const std::size_t start = pos + 8;
  return response.substr(start, response.find('"', start) - start);
}

struct Req {
  Kind kind;
  std::string line;
  std::string stored_key;  // expected-table key of the answer (cache and sim tiers)
  // Operands of model-tier requests, for the direct model:: probes.
  std::string machine, app;
  double n = 0.0, target_ee = 0.0;
  int p = 1;
  std::vector<int> ps;  // iso_contour
};

/// Line-framed blocking client over loopback TCP.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the service");
    }
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends one line and returns the response line ("" when the connection
  /// failed, which the caller counts as a failed operation).
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      if (n <= 0) return {};
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return response;
      }
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// An in-process TcpServer on an ephemeral port, served on its own thread.
/// stop() closes nothing itself: callers close their clients first, then
/// stop() sends `shutdown` on a fresh connection and waits a bounded time
/// for serve() to return.
class Server {
 public:
  explicit Server(const std::string& cache_dir)
      : service_(config(cache_dir)), tcp_(service_, 0), thread_([this] {
          tcp_.serve();
          std::lock_guard<std::mutex> lock(mu_);
          done_ = true;
          cv_.notify_all();
        }) {}
  ~Server() {
    if (thread_.joinable()) thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return tcp_.port(); }

  /// True when serve() returned within the watchdog bound.
  bool stop(std::chrono::seconds bound) {
    {
      Client admin(port());
      admin.call(R"({"method":"shutdown"})");
    }
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, bound, [this] { return done_; });
  }

 private:
  static service::ServiceConfig config(const std::string& cache_dir) {
    service::ServiceConfig c;
    c.jobs = 1;
    c.cache_dir = cache_dir;
    return c;
  }

  service::Service service_;
  service::TcpServer tcp_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: it uses every member above
};

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Env& env) : env_(env) {}

  int ops_per_round() const override { return kRoundSize; }
  double rounds_per_second() const override { return 7.5; }

  void setup(std::uint64_t seed, int rounds) override {
    const fs::path root = fs::path(env_.work_dir) / "service_mix";
    fs::remove_all(root);
    fs::create_directories(root);
    serve_dir_ = (root / "serve_cache").string();
    ref_dir_ = (root / "reference_cache").string();
    prewarm(serve_dir_);
    fs::copy(serve_dir_, ref_dir_, fs::copy_options::recursive);

    reqs_.clear();
    reqs_.reserve(static_cast<std::size_t>(rounds) * kRoundSize);
    for (int r = 0; r < rounds; ++r) {
      util::Xoshiro256 rng(mix_seed(seed, 3000 + static_cast<std::uint64_t>(r)));
      std::vector<Req> round;
      int cold = 0;
      for (int k = 0; k < kKinds; ++k) {
        for (int i = 0; i < kPerRound[k]; ++i) {
          round.push_back(make_request(static_cast<Kind>(k), r, i, cold, rng));
        }
      }
      for (std::size_t i = round.size(); i > 1; --i) {
        std::swap(round[i - 1], round[rng() % i]);
      }
      for (std::size_t i = 0; i < round.size(); ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(r) * kRoundSize + i;
        const std::size_t open = round[i].line.find(',');  // after {"id":<placeholder>
        round[i].line = R"({"id":)" + std::to_string(id) + round[i].line.substr(open);
        reqs_.push_back(std::move(round[i]));
      }
    }
    responses_.assign(reqs_.size(), {});
    latency_s_.assign(reqs_.size(), 0.0);
    ran_.assign(reqs_.size(), false);
  }

  void run(int first, int count, Pass& pass) override {
    const std::size_t begin = static_cast<std::size_t>(first) * kRoundSize;
    const std::size_t end = begin + static_cast<std::size_t>(count) * kRoundSize;
    auto server = std::make_unique<Server>(serve_dir_);
    std::vector<std::unique_ptr<Client>> clients;
    try {
      for (int c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<Client>(server->port()));
      }
    } catch (...) {
      clients.clear();
      if (!server->stop(std::chrono::seconds(10))) (void)server.release();
      throw;
    }

    const Counts c0 = Counts::now();
    const Clock::time_point start = Clock::now();
    // The clients meet at the end of every round, so each round starts from
    // the same state: without it the two loops drift apart in long-lived
    // phase patterns that change how often one waits for the other's
    // simulation from run to run.
    std::barrier round_end(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client& client = *clients[static_cast<std::size_t>(c)];
        for (std::size_t r = begin; r < end; r += kRoundSize) {
          for (std::size_t i = r + static_cast<std::size_t>(c); i < r + kRoundSize;
               i += kClients) {
            const Clock::time_point t0 = Clock::now();
            responses_[i] = client.call(reqs_[i].line);
            const Clock::time_point t1 = Clock::now();
            latency_s_[i] = std::chrono::duration<double>(t1 - t0).count();
            ran_[i] = true;
            if (pass.trace != nullptr) {
              record_span(*pass.trace,
                          std::string("service.tcp.") + kind_tier(reqs_[i].kind), t0, t1,
                          c + 1);
            }
          }
          round_end.arrive_and_wait();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    pass.wall_s += seconds_since(start);
    const Counts delta = Counts::now() - c0;

    // Close every client before asking the server to stop: an idle
    // connection during shutdown is the known serve() hang, and if it
    // resurfaces the watchdog turns it into a failed operation instead of a
    // wedged benchmark.
    clients.clear();
    if (!server->stop(std::chrono::seconds(10))) {
      ++pass.failed;
      record_failure("service_mix: server did not shut down within 10 s");
      (void)server.release();  // its serve thread is wedged; never join it
    }

    std::map<std::string, std::uint64_t> round_tiers;
    for (std::size_t i = begin; i < end; ++i) {
      pass.latencies_s.push_back(latency_s_[i]);
      ++pass.attempted;
      const Req& req = reqs_[i];
      const std::string tier = tier_of(responses_[i]);
      std::string err;
      if (responses_[i].empty()) {
        err = "no response";
      } else if (tier != kind_tier(req.kind)) {
        err = "answered from tier " + tier + ", expected " + kind_tier(req.kind);
      } else if (!req.stored_key.empty()) {
        err = env_.expected->check_text(req.stored_key, stable_fragment(responses_[i]));
      }
      if (!err.empty()) {
        ++pass.failed;
        record_failure("service_mix request " + std::to_string(i) + ": " + err);
      }
      ++round_tiers[tier];
      if ((i + 1) % kRoundSize == 0) {
        if (round_tiers != composition()) {
          record_guard_violation(
              "service_mix: a round's tier counts differ from the stream's composition");
        }
        tiers_ = round_tiers;
        round_tiers.clear();
      }
    }
    const Counts round{delta.runs_started / static_cast<std::uint64_t>(count),
                       delta.events / static_cast<std::uint64_t>(count),
                       delta.messages / static_cast<std::uint64_t>(count),
                       delta.bytes / static_cast<std::uint64_t>(count)};
    if (!(Counts{round.runs_started * count, round.events * count, round.messages * count,
                 round.bytes * count} == delta) ||
        (have_round_ && !(round == per_round))) {
      record_guard_violation("service_mix: simulated work differs between rounds");
    }
    have_round_ = true;
    per_round = round;
  }

  /// In-process reference: a fresh Service on a copy of the pre-warmed cache
  /// answers the requests that ran, and each TCP response's result fragment
  /// must equal the reference's byte for byte. Cold points are re-simulated
  /// only for the first kReferenceColdRounds rounds: run() already checked
  /// every sim-tier answer against its stored fragment.
  std::uint64_t verify() override {
    constexpr std::size_t kReferenceColdRounds = 4;
    std::uint64_t failed = 0;
    handle_us_.assign(kKinds, {});
    service::ServiceConfig config;
    config.jobs = 1;
    config.cache_dir = ref_dir_;
    service::Service reference(config);
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (!ran_[i]) continue;
      const Kind kind = reqs_[i].kind;
      if (kind == Kind::kCold && i >= kReferenceColdRounds * kRoundSize) continue;
      const Clock::time_point t0 = Clock::now();
      const std::string want = reference.handle_line(reqs_[i].line);
      handle_us_[static_cast<std::size_t>(kind)].push_back(seconds_since(t0) * 1e6);
      if (stable_fragment(want) != stable_fragment(responses_[i]) ||
          tier_of(want) != kind_tier(kind)) {
        ++failed;
        record_failure("service_mix request " + std::to_string(i) +
                       ": TCP answer differs from the in-process reference");
      }
    }
    return failed;
  }

  void layer_metrics(const Pass& traced, Metrics& out) override {
    auto merged = [&](std::initializer_list<Kind> kinds) {
      std::vector<double> v;
      for (const Kind k : kinds) {
        const auto& h = handle_us_[static_cast<std::size_t>(k)];
        v.insert(v.end(), h.begin(), h.end());
      }
      return median(v);
    };
    const double model_us = merged({Kind::kPredict, Kind::kOptimize, Kind::kIsoContour});
    out["service.handle_us.model"] = {model_us, "us"};
    out["service.handle_us.cache"] = {merged({Kind::kCached}), "us"};
    out["service.handle_us.sim"] = {merged({Kind::kCold}), "us"};
    out["service.handle_us.calibrate"] = {merged({Kind::kCalibrate}), "us"};
    out["service.transport_us"] = {
        median(span_durations(*traced.trace, "service.tcp.model")) * 1e6 - model_us, "us"};
    // Head-of-line blocking in the scheduler: cache hits that took over 1 ms
    // over TCP (~15x an unblocked one) waited for a simulation.
    const std::vector<double> cache_s = span_durations(*traced.trace, "service.tcp.cache");
    out["service.cache_blocked_frac"] = {
        static_cast<double>(std::count_if(cache_s.begin(), cache_s.end(),
                                          [](double s) { return s > 1e-3; })) /
            static_cast<double>(cache_s.size()),
        "frac"};
    for (const char* tier : {"model", "cache", "sim"}) {
      out[std::string("service.tier_") + tier] = {static_cast<double>(tiers_[tier]),
                                                   "count"};
    }
    direct_probes(out);
  }

 private:
  /// Tier counts of one round, by construction.
  static const std::map<std::string, std::uint64_t>& composition() {
    static const std::map<std::string, std::uint64_t> tiers = [] {
      std::map<std::string, std::uint64_t> t;
      for (int k = 0; k < kKinds; ++k) t[kind_tier(static_cast<Kind>(k))] += kPerRound[k];
      return t;
    }();
    return tiers;
  }

  Req make_request(Kind kind, int round, int i, int& cold, util::Xoshiro256& rng) {
    Req q;
    q.kind = kind;
    q.machine = kMachines[rng() % 2];
    q.app = kApps[rng() % 4];
    q.n = 1e5 * std::pow(10.0, 3.0 * rng.uniform());  // 1e5 .. 1e8
    q.p = 1 << (rng() % 9);                           // 1 .. 256
    q.target_ee = 0.3 + 0.6 * rng.uniform();
    const std::string common =
        std::string(R"("machine":")") + q.machine + R"(","app":")" + q.app + R"(",)";
    switch (kind) {
      case Kind::kPredict:
        q.line = request(0, "predict",
                         common + R"("n":)" + service::json_num(q.n) + R"(,"p":)" +
                             std::to_string(q.p));
        break;
      case Kind::kOptimize: {
        const char* objective = kObjectives[i % 5];
        std::string operand;
        const double u = rng.uniform();
        if (i % 5 == 0) operand = R"(,"cap_w":)" + service::json_num(500.0 + 4000.0 * u);
        if (i % 5 == 1) operand = R"(,"deadline_s":)" + service::json_num(0.05 + u);
        if (i % 5 == 2) operand = R"(,"target_ee":)" + service::json_num(q.target_ee);
        if (i % 5 >= 3) operand = R"(,"p":)" + std::to_string(q.p);
        q.line = request(0, "optimize",
                         common + R"("n":)" + service::json_num(q.n) +
                             R"(,"objective":")" + objective + "\"" + operand);
        break;
      }
      case Kind::kIsoContour: {
        // Machine and app by slot, so every round carries the same contour
        // work; the seed picks the target and the processor counts.
        q.machine = kMachines[(i / 4) % 2];
        q.app = kApps[i % 4];
        const int offset = 1 + static_cast<int>(rng() % 8);
        const int stride = 1 + static_cast<int>(rng() % 4);
        std::string list;
        for (int k = 0; k < kContourPs; ++k) {
          q.ps.push_back(offset + stride * k);
          list += (k == 0 ? "" : ",") + std::to_string(q.ps.back());
        }
        q.line = request(0, "iso_contour",
                         std::string(R"("machine":")") + q.machine + R"(","app":")" +
                             q.app + R"(","target_ee":)" + service::json_num(q.target_ee) +
                             R"(,"ps":[)" + list + "]");
        break;
      }
      case Kind::kCached: {
        const std::size_t w = static_cast<std::size_t>(i) % std::size(kWarmPoints);
        q.line = request(0, "predict", measured_params(kWarmPoints[w], kWarmPoints[w].n));
        q.stored_key = "service/measured." + std::to_string(w);
        break;
      }
      case Kind::kCalibrate: {
        const std::size_t w =
            static_cast<std::size_t>(round + i) % std::size(kWarmCalibrations);
        q.line = request(0, "calibrate", kWarmCalibrations[w]);
        q.stored_key = "service/calibrate." + std::to_string(w);
        break;
      }
      case Kind::kCold: {
        // Unique per run: round and slot pick an exact binary fraction.
        const std::size_t k = static_cast<std::size_t>(cold) % std::size(kColdShapes);
        const Point& shape = kColdShapes[k];
        q.stored_key = "service/cold." + std::to_string(k);
        const double unique =
            (round * kPerRound[static_cast<int>(Kind::kCold)] + cold + 1) / 65536.0;
        ++cold;
        q.line = request(0, "predict", measured_params(shape, shape.n + unique));
        break;
      }
    }
    return q;
  }

  /// Fills a cache directory with every cache-tier answer of the stream.
  static void prewarm(const std::string& dir) {
    service::ServiceConfig config;
    config.jobs = 1;
    config.cache_dir = dir;
    service::Service warm(config);
    for (const Point& pt : kWarmPoints) {
      (void)warm.handle_line(request(0, "predict", measured_params(pt, pt.n)));
    }
    for (const char* params : kWarmCalibrations) {
      (void)warm.handle_line(request(0, "calibrate", params));
    }
  }

  /// Direct model::, parse and exec::ResultCache calls on the stream's own
  /// parameters and lines.
  void direct_probes(Metrics& out) {
    std::vector<double> predict_us, contour_us, parse_us, load_us, store_us;
    double sink = 0.0;
    static const model::EpWorkload ep;
    static const model::FtWorkload ft;
    static const model::CgWorkload cg;
    static const model::IsWorkload is;
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (!ran_[i]) continue;
      const Req& q = reqs_[i];
      Clock::time_point t0 = Clock::now();
      (void)service::parse_request(q.line);
      parse_us.push_back(seconds_since(t0) * 1e6);
      if (q.kind != Kind::kPredict && q.kind != Kind::kIsoContour) continue;
      const sim::MachineSpec spec =
          q.machine == "system_g" ? sim::system_g() : sim::dori();
      const std::map<std::string, const model::WorkloadModel*> stock = {
          {"EP", &ep}, {"FT", &ft}, {"CG", &cg}, {"IS", &is}};
      const model::WorkloadModel& w = *stock.at(q.app);
      const model::MachineParams mp = tools::nominal_machine_params(spec);
      t0 = Clock::now();
      if (q.kind == Kind::kPredict) {
        const model::IsoEnergyModel m(mp);
        const model::AppParams app = w.at(q.n, q.p);
        sink += m.predict_performance(app).Tp + m.predict_energy(app).EE;
        predict_us.push_back(seconds_since(t0) * 1e6);
      } else {
        sink += static_cast<double>(
            model::iso_ee_contour(mp, w, q.target_ee, q.ps, mp.base_ghz, 1e2, 1e10).size());
        contour_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    // Measured-predict payloads (n, energy, time, alpha) through a scratch
    // cache, one store then one load per cache-tier or cold request.
    const fs::path dir = fs::path(env_.work_dir) / "service_mix" / "probe_cache";
    fs::remove_all(dir);
    {
      const exec::ResultCache cache(dir.string());
      for (std::size_t i = 0; i < reqs_.size(); ++i) {
        if (!ran_[i] || reqs_[i].kind != Kind::kCold) continue;
        const std::string key = "perfbench\x1f" + reqs_[i].line;
        const std::string payload = exec::encode_doubles({reqs_[i].n, sink, 1.0, 0.5});
        Clock::time_point t0 = Clock::now();
        if (!cache.store(key, payload)) record_failure("exec cache store failed");
        store_us.push_back(seconds_since(t0) * 1e6);
        t0 = Clock::now();
        if (cache.load(key) != payload) record_failure("exec cache load mismatch");
        load_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    fs::remove_all(dir);
    out["service.parse_us"] = {median(parse_us), "us"};
    out["model.predict_us"] = {median(predict_us), "us"};
    out["model.iso_contour_us"] = {median(contour_us), "us"};
    out["exec.cache_store_us"] = {median(store_us), "us"};
    out["exec.cache_load_us"] = {median(load_us), "us"};
  }

  const Env& env_;
  std::string serve_dir_, ref_dir_;
  std::vector<Req> reqs_;
  std::vector<std::string> responses_;
  std::vector<double> latency_s_;
  std::vector<char> ran_;  // char, not bool: client threads write disjoint elements
  std::vector<std::vector<double>> handle_us_;
  std::map<std::string, std::uint64_t> tiers_;  // measured tier counts of the last round
  bool have_round_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_service_mix(const Env& env) {
  return std::make_unique<ServiceMix>(env);
}

void record_service_mix(const Env& env, Expected& out) {
  const fs::path dir = fs::path(env.work_dir) / "record_cache";
  fs::remove_all(dir);
  {
    service::ServiceConfig config;
    config.jobs = 1;
    config.cache_dir = dir.string();
    service::Service svc(config);
    for (std::size_t w = 0; w < std::size(kWarmPoints); ++w) {
      const std::string line =
          request(0, "predict", measured_params(kWarmPoints[w], kWarmPoints[w].n));
      out.put_text("service/measured." + std::to_string(w),
                   stable_fragment(svc.handle_line(line)));
    }
    for (std::size_t w = 0; w < std::size(kWarmCalibrations); ++w) {
      const std::string line = request(0, "calibrate", kWarmCalibrations[w]);
      out.put_text("service/calibrate." + std::to_string(w),
                   stable_fragment(svc.handle_line(line)));
    }
    for (std::size_t k = 0; k < std::size(kColdShapes); ++k) {
      const std::string line =
          request(0, "predict", measured_params(kColdShapes[k], kColdShapes[k].n));
      out.put_text("service/cold." + std::to_string(k),
                   stable_fragment(svc.handle_line(line)));
    }
  }
  fs::remove_all(dir);
}

}  // namespace perfbench
