#include "service/scheduler.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/obs.hpp"

namespace isoee::service {

namespace {
struct SchedulerMetrics {
  obs::Counter& coalesced = obs::metrics().counter("service.coalesced");
  obs::Counter& rejected = obs::metrics().counter("service.rejected");
  obs::Counter& jobs_run = obs::metrics().counter("service.jobs_run");
  obs::Gauge& queue_depth = obs::metrics().gauge("service.queue_depth");

  static SchedulerMetrics& get() {
    static SchedulerMetrics m;
    return m;
  }
};
}  // namespace

SimScheduler::SimScheduler(const SchedulerConfig& config)
    : budget_(exec::resolve_budget(config.jobs)),
      max_pending_(config.max_pending),
      cache_(config.cache_dir, config.cache_max_bytes) {}

SimScheduler::Ticket SimScheduler::submit(
    const std::string& key, std::vector<exec::Case> cases,
    std::function<std::string(const std::vector<exec::CaseResult>&)> fold) {
  int width = 0;
  for (const exec::Case& c : cases) width += c.threads;
  exec::BatchOptions opts;
  opts.thread_budget = std::clamp(width, 1, budget_);
  opts.cache = cache_.enabled() ? &cache_ : nullptr;

  SchedulerMetrics& metrics = SchedulerMetrics::get();
  Ticket ticket;
  std::unique_lock<std::mutex> lock(mu_);
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    ticket.result = it->second;
    ticket.coalesced = true;
    metrics.coalesced.inc();
    return ticket;
  }
  if (pending_ >= max_pending_) {
    ticket.rejected = true;
    metrics.rejected.inc();
    return ticket;
  }
  std::promise<Outcome> promise;
  ticket.result = promise.get_future().share();
  inflight_.emplace(key, ticket.result);
  metrics.queue_depth.set(static_cast<double>(++pending_));
  try {
    std::vector<exec::CaseResult> results;
    {
      const Turn turn(*this, opts.thread_budget, lock);
      results = exec::run_batch(cases, opts);
    }
    Outcome outcome;
    for (const exec::CaseResult& r : results) outcome.simulated |= !r.from_cache;
    outcome.payload = fold(results);
    promise.set_value(std::move(outcome));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  metrics.jobs_run.inc();
  // Only now does an identical key stop coalescing onto this job — the
  // result is fulfilled, so latecomers either read the warm cache or rerun.
  lock.lock();
  inflight_.erase(key);
  metrics.queue_depth.set(static_cast<double>(--pending_));
  return ticket;
}

SimScheduler::Turn::Turn(SimScheduler& scheduler, int width, std::unique_lock<std::mutex>& held)
    : scheduler_(scheduler), width_(width) {
  SimScheduler& s = scheduler_;
  const std::uint64_t mine = s.next_turn_++;
  s.turn_cv_.wait(held, [&] { return s.head_turn_ == mine && s.in_use_ + width_ <= s.budget_; });
  s.in_use_ += width_;
  ++s.head_turn_;
  held.unlock();
  s.turn_cv_.notify_all();  // the next turn may fit in what is left
}

SimScheduler::Turn::~Turn() {
  {
    std::lock_guard<std::mutex> lock(scheduler_.mu_);
    scheduler_.in_use_ -= width_;
  }
  scheduler_.turn_cv_.notify_all();
}

SchedulerGate::SchedulerGate(SimScheduler& scheduler) {
  std::unique_lock<std::mutex> lock(scheduler.mu_);
  turn_.emplace(scheduler, scheduler.budget_, lock);
  coalesced_before_ = SchedulerMetrics::get().coalesced.value();
}

bool SchedulerGate::release_after_coalesced(std::uint64_t n, std::chrono::milliseconds timeout) {
  const obs::Counter& coalesced = SchedulerMetrics::get().coalesced;
  const auto all_coalesced = [&] { return coalesced.value() - coalesced_before_ >= n; };
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!all_coalesced() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool all = all_coalesced();
  release();
  return all;
}

}  // namespace isoee::service
