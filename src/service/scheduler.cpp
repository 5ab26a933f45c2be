#include "service/scheduler.hpp"

#include <atomic>
#include <stdexcept>
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
    : config_(config), cache_(config.cache_dir, config.cache_max_bytes) {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SimScheduler::~SimScheduler() { stop(); }

SimScheduler::Ticket SimScheduler::submit(
    const std::string& key, std::vector<exec::Case> cases,
    std::function<std::string(const std::vector<exec::CaseResult>&)> fold) {
  Ticket ticket;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    ticket.result = it->second;
    ticket.coalesced = true;
    SchedulerMetrics::get().coalesced.inc();
    return ticket;
  }
  if (stopping_ || pending_ >= config_.max_pending) {
    ticket.rejected = true;
    SchedulerMetrics::get().rejected.inc();
    return ticket;
  }
  Job job;
  job.key = key;
  job.cases = std::move(cases);
  job.fold = std::move(fold);
  job.promise = std::make_shared<std::promise<Outcome>>();
  ticket.result = job.promise->get_future().share();
  inflight_.emplace(key, ticket.result);
  queue_.push_back(std::move(job));
  ++pending_;
  SchedulerMetrics::get().queue_depth.set(static_cast<double>(pending_));
  cv_.notify_one();
  return ticket;
}

void SimScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
    cv_.notify_one();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

void SimScheduler::dispatch_loop() {
  for (;;) {
    std::vector<Job> jobs;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty() && stopping_) return;
      // Drain everything queued so far: one run_batch per cycle shares the
      // host-thread budget across concurrent requests.
      jobs.reserve(queue_.size());
      while (!queue_.empty()) {
        jobs.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    run_jobs(std::move(jobs));
  }
}

void SimScheduler::run_jobs(std::vector<Job> jobs) {
  std::vector<exec::Case> batch;
  std::vector<std::size_t> offsets;  // first case index of each job
  for (const Job& job : jobs) {
    offsets.push_back(batch.size());
    batch.insert(batch.end(), job.cases.begin(), job.cases.end());
  }
  offsets.push_back(batch.size());

  exec::BatchOptions opts;
  opts.thread_budget = config_.jobs;
  opts.cache = cache_.enabled() ? &cache_ : nullptr;
  const std::vector<exec::CaseResult> results = exec::run_batch(batch, opts);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::vector<exec::CaseResult> slice(results.begin() + offsets[j],
                                              results.begin() + offsets[j + 1]);
    Outcome outcome;
    for (const exec::CaseResult& r : slice) outcome.simulated |= !r.from_cache;
    try {
      outcome.payload = jobs[j].fold(slice);
      jobs[j].promise->set_value(std::move(outcome));
    } catch (...) {
      jobs[j].promise->set_exception(std::current_exception());
    }
    SchedulerMetrics::get().jobs_run.inc();
    // Only now does an identical key stop coalescing onto this job — the
    // result is fulfilled, so latecomers either read the warm cache or rerun.
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(jobs[j].key);
    --pending_;
    SchedulerMetrics::get().queue_depth.set(static_cast<double>(pending_));
  }
}

SchedulerGate::SchedulerGate(SimScheduler& scheduler) {
  static std::atomic<std::uint64_t> next_id{0};
  exec::Case gate;
  gate.run = [state = state_]() -> std::string {
    std::unique_lock<std::mutex> lock(state->mu);
    state->running = true;
    state->cv.notify_all();
    state->cv.wait(lock, [&] { return state->released; });
    return std::string();
  };
  std::string key = "scheduler-gate/";
  key += std::to_string(next_id.fetch_add(1));
  const SimScheduler::Ticket ticket =
      scheduler.submit(key, {std::move(gate)},
                       [](const std::vector<exec::CaseResult>&) { return std::string(); });
  if (ticket.rejected) throw std::runtime_error("SchedulerGate: gate job was rejected");
  done_ = ticket.result;
  coalesced_before_ = SchedulerMetrics::get().coalesced.value();
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->running; });
}

SchedulerGate::~SchedulerGate() { release(); }

void SchedulerGate::release() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->released = true;
    state_->cv.notify_all();
  }
  done_.wait();
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
