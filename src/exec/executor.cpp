#include "exec/executor.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace isoee::exec {

namespace {

struct ExecMetrics {
  obs::Counter& started = obs::metrics().counter("exec.cases_started");
  obs::Counter& hits = obs::metrics().counter("exec.cache_hits");
  obs::Counter& joined = obs::metrics().counter("exec.cases_joined");
  obs::Gauge& peak = obs::metrics().gauge("exec.max_threads_in_use");
  obs::Gauge& queue_depth = obs::metrics().gauge("exec.queue_depth");

  static ExecMetrics& get() {
    static ExecMetrics m;
    return m;
  }
};

/// Set while this thread runs a case body; Executor::run refuses to nest.
thread_local bool t_in_case = false;

/// Runs the case body, capturing exceptions into the result slot.
void run_body(const Case& c, CaseResult& r) {
  t_in_case = true;
  try {
    r.payload = c.run();
  } catch (const std::exception& e) {
    r.error = e.what();
  } catch (...) {
    r.error = "unknown exception";
  }
  t_in_case = false;
}

/// The host-thread budget `requested` stands for: itself when positive,
/// otherwise std::thread::hardware_concurrency() (at least 1).
int resolve_budget(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

std::uint64_t case_seed(std::uint64_t root_seed, std::uint64_t index) {
  std::uint64_t s = root_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  // splitmix64 step, inlined to avoid a util dependency in the hot loop.
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Executor::Executor(const ExecConfig& config)
    : budget_(resolve_budget(config.jobs)),
      cache_(config.cache_dir, config.cache_max_bytes) {}

std::vector<CaseResult> Executor::run(const std::vector<Case>& cases,
                                      BatchStats* stats_out) {
  if (t_in_case) {
    throw std::logic_error(
        "exec::Executor::run called from inside a case body: the enclosing batch "
        "holds the turn a nested batch would wait for");
  }
  ExecMetrics& metrics = ExecMetrics::get();
  std::vector<CaseResult> results(cases.size());
  BatchStats stats;
  std::vector<std::size_t> own;  // cases this batch runs (or probes)
  std::vector<std::pair<std::size_t, std::promise<CaseResult>>> registered;
  std::vector<std::pair<std::size_t, std::shared_future<CaseResult>>> joins;
  int width = 0;

  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string& key = cases[i].cache_key;
    if (!key.empty()) {
      if (const auto it = inflight_.find(key); it != inflight_.end()) {
        joins.emplace_back(i, it->second);
        continue;
      }
      registered.emplace_back(i, std::promise<CaseResult>());
      inflight_.emplace(key, registered.back().second.get_future().share());
    }
    own.push_back(i);
    width += cases[i].threads;
  }
  stats.joined = joins.size();
  metrics.joined.inc(stats.joined);
  metrics.queue_depth.set(static_cast<double>(++batches_));
  // With mu_ held: this batch's keys leave the in-flight table. A key whose
  // promise was never fulfilled reads as broken_promise to its joiners.
  const auto leave = [&] {
    for (const auto& entry : registered) inflight_.erase(cases[entry.first].cache_key);
    metrics.queue_depth.set(static_cast<double>(--batches_));
  };

  try {
    if (own.empty()) {
      lock.unlock();
    } else {
      width = std::clamp(width, 1, budget_);
      const Turn turn(*this, width, lock);
      run_own(cases, own, width, results, stats);
    }
  } catch (...) {
    if (!lock.owns_lock()) lock.lock();
    leave();
    throw;
  }
  lock.lock();
  for (auto& [i, promise] : registered) promise.set_value(results[i]);
  leave();
  lock.unlock();
  for (auto& [i, result] : joins) results[i] = result.get();

  metrics.started.inc(stats.started);
  metrics.hits.inc(stats.cache_hits);
  metrics.peak.set_max(static_cast<double>(stats.max_threads_in_use));
  if (stats_out != nullptr) *stats_out = stats;
  return results;
}

void Executor::run_own(const std::vector<Case>& cases,
                       const std::vector<std::size_t>& own, int width,
                       std::vector<CaseResult>& results, BatchStats& stats) {
  const bool caching = cache_.enabled();
  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;  // next position in `own` to claim (submission order)
  int in_use = 0;        // sum of thread costs of running (non-cached) cases

  // Worker protocol: claim the next case in submission order, probe the cache
  // off the lock, and only take thread cost for a real execution.
  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    while (next < own.size()) {
      const std::size_t i = own[next++];
      const Case& c = cases[i];
      lock.unlock();

      CaseResult r;
      std::optional<std::string> hit;
      if (caching && !c.cache_key.empty()) hit = cache_.load(c.cache_key);
      if (hit) {
        r.payload = std::move(*hit);
        r.from_cache = true;
        lock.lock();
        ++stats.cache_hits;
      } else {
        // Each case costs its declared thread count, clamped into [1, width]
        // so an extra-wide case runs alone instead of never being admitted.
        const int cost = std::min(std::max(c.threads, 1), width);
        lock.lock();
        cv.wait(lock, [&] { return in_use + cost <= width; });
        in_use += cost;
        ++stats.started;
        stats.max_threads_in_use = std::max(stats.max_threads_in_use, in_use);
        lock.unlock();

        run_body(c, r);
        if (caching && !c.cache_key.empty() && r.ok()) {
          cache_.store(c.cache_key, r.payload);
        }

        lock.lock();
        in_use -= cost;
        cv.notify_all();
      }
      results[i] = std::move(r);
    }
  };

  const std::size_t workers = std::min(own.size(), static_cast<std::size_t>(width));
  std::vector<std::jthread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
}

Executor::Turn::Turn(Executor& executor, int width, std::unique_lock<std::mutex>& held)
    : executor_(executor), width_(width) {
  Executor& ex = executor_;
  const std::uint64_t mine = ex.next_turn_++;
  ex.turn_cv_.wait(held, [&] {
    return ex.head_turn_ == mine && ex.in_use_ + width_ <= ex.budget_;
  });
  ex.in_use_ += width_;
  ++ex.head_turn_;
  held.unlock();
  ex.turn_cv_.notify_all();  // the next turn may fit in what is left
}

Executor::Turn::~Turn() {
  {
    std::lock_guard<std::mutex> lock(executor_.mu_);
    executor_.in_use_ -= width_;
  }
  executor_.turn_cv_.notify_all();
}

BudgetGate::BudgetGate(Executor& executor) {
  std::unique_lock<std::mutex> lock(executor.mu_);
  turn_.emplace(executor, executor.budget_, lock);
  joined_before_ = ExecMetrics::get().joined.value();
}

bool BudgetGate::release_after_joined(std::uint64_t n,
                                      std::chrono::milliseconds timeout) {
  const obs::Counter& joined = ExecMetrics::get().joined;
  const auto all_joined = [&] { return joined.value() - joined_before_ >= n; };
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!all_joined() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool all = all_joined();
  release();
  return all;
}

}  // namespace isoee::exec
