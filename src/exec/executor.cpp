#include "exec/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace isoee::exec {

namespace {

bool failed(const CaseResult& r, const BatchOptions& opts) {
  if (!r.error.empty()) return true;
  return opts.is_failure && opts.is_failure(r);
}

/// Cache probe; returns true and fills `r` on a hit.
bool try_cache(const Case& c, const BatchOptions& opts, CaseResult& r) {
  if (!opts.cache || c.cache_key.empty()) return false;
  auto hit = opts.cache->load(c.cache_key);
  if (!hit) return false;
  r.payload = std::move(*hit);
  r.from_cache = true;
  return true;
}

/// Runs the case body, capturing exceptions into the result slot, and stores
/// a successful payload under the case's cache key.
void run_body(const Case& c, const BatchOptions& opts, CaseResult& r) {
  try {
    r.payload = c.run();
  } catch (const std::exception& e) {
    r.error = e.what();
    return;
  } catch (...) {
    r.error = "unknown exception";
    return;
  }
  if (opts.cache && !c.cache_key.empty()) opts.cache->store(c.cache_key, r.payload);
}

/// Folds one batch's stats into the process metrics registry (totals across
/// all run_batch calls; BatchOptions::stats still reports the per-batch view).
void absorb_stats(const BatchStats& stats) {
  static obs::Counter& started = obs::metrics().counter("exec.cases_started");
  static obs::Counter& hits = obs::metrics().counter("exec.cache_hits");
  static obs::Counter& skipped = obs::metrics().counter("exec.cases_skipped");
  static obs::Gauge& peak = obs::metrics().gauge("exec.max_threads_in_use");
  started.inc(stats.started);
  hits.inc(stats.cache_hits);
  skipped.inc(stats.skipped);
  peak.set_max(static_cast<double>(stats.max_threads_in_use));
}

}  // namespace

int resolve_budget(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::uint64_t case_seed(std::uint64_t root_seed, std::uint64_t index) {
  std::uint64_t s = root_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  // splitmix64 step, inlined to avoid a util dependency in the hot loop.
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<CaseResult> run_batch(const std::vector<Case>& cases, const BatchOptions& opts) {
  std::vector<CaseResult> results(cases.size());
  const int budget = resolve_budget(opts.thread_budget);
  BatchStats local_stats;
  BatchStats& stats = opts.stats ? *opts.stats : local_stats;
  stats = BatchStats{};

  if (budget <= 1 || cases.size() <= 1) {
    // Serial reference path: the parallel path must match it bit for bit.
    bool cancelled = false;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      CaseResult& r = results[i];
      if (cancelled) {
        r.skipped = true;
        ++stats.skipped;
        continue;
      }
      if (try_cache(cases[i], opts, r)) {
        ++stats.cache_hits;
      } else {
        run_body(cases[i], opts, r);
        ++stats.started;
        stats.max_threads_in_use = std::max(
            stats.max_threads_in_use, std::min(std::max(cases[i].threads, 1), budget));
      }
      if (opts.fail_fast && failed(r, opts)) cancelled = true;
    }
    absorb_stats(stats);
    return results;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;   // next case index to claim (strict FIFO)
  int in_use = 0;         // sum of thread costs of running (non-cached) cases
  bool cancelled = false;

  // Worker protocol: claim the next index in submission order (a claimed case
  // always runs, even if fail_fast fires afterwards), probe the cache off the
  // lock, and only acquire thread budget for a real execution. A cache hit
  // therefore costs zero budget — a warm-cache batch is pure file I/O.
  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    while (next < cases.size()) {
      if (cancelled) {
        while (next < cases.size()) {
          results[next].skipped = true;
          ++stats.skipped;
          ++next;
        }
        break;
      }
      const std::size_t i = next++;
      lock.unlock();

      CaseResult r;
      if (try_cache(cases[i], opts, r)) {
        lock.lock();
        ++stats.cache_hits;
      } else {
        // Each case costs its declared thread count, clamped into [1, budget]
        // so an extra-wide case runs alone instead of never being admitted.
        const int cost = std::min(std::max(cases[i].threads, 1), budget);
        lock.lock();
        while (in_use + cost > budget) cv.wait(lock);
        in_use += cost;
        ++stats.started;
        stats.max_threads_in_use = std::max(stats.max_threads_in_use, in_use);
        lock.unlock();

        run_body(cases[i], opts, r);

        lock.lock();
        in_use -= cost;
        cv.notify_all();
      }
      if (opts.fail_fast && failed(r, opts)) cancelled = true;
      results[i] = std::move(r);
    }
    cv.notify_all();
  };

  const int workers =
      static_cast<int>(std::min<std::size_t>(cases.size(), static_cast<std::size_t>(budget)));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  absorb_stats(stats);
  return results;
}

}  // namespace isoee::exec
