#include "obs/sched_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/log.hpp"

namespace isoee::obs {

const char* sched_phase_name(SchedPhase ph) {
  switch (ph) {
    case SchedPhase::kIdle:
      return "idle";
    case SchedPhase::kHeapDispatch:
      return "heap_dispatch";
    case SchedPhase::kFiberRun:
      return "fiber_run";
    case SchedPhase::kMailboxWait:
      return "mailbox_wait";
  }
  return "unknown";
}

SchedProfiler& SchedProfiler::global() {
  static SchedProfiler* p = new SchedProfiler();  // never destroyed
  return *p;
}

SchedProfiler& sched_profiler() { return SchedProfiler::global(); }

SchedProfiler::~SchedProfiler() { stop(); }

std::uint64_t SchedProfiler::pack(bool active, SchedPhase ph, int rank) {
  return (active ? (1ULL << 63) : 0ULL) |
         (static_cast<std::uint64_t>(ph) << 32) |
         static_cast<std::uint32_t>(rank + 1);
}

void SchedProfiler::start(Options opts) {
  if (enabled_.load(std::memory_order_acquire)) return;
  if (opts.interval_us < 50) opts.interval_us = 50;
  if (opts.top_ranks <= 0) opts.top_ranks = 20;
  opts_ = opts;
  enabled_.store(true, std::memory_order_release);
  sampler_ = std::thread([this] { sampler_loop(); });
}

void SchedProfiler::stop() {
  if (!enabled_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    enabled_.store(false, std::memory_order_release);
  }
  wake_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void SchedProfiler::sampler_loop() {
  std::unique_lock<std::mutex> wake(wake_mu_);
  while (enabled_.load(std::memory_order_acquire)) {
    wake_cv_.wait_for(wake, std::chrono::microseconds(opts_.interval_us));
    if (!enabled_.load(std::memory_order_acquire)) break;
    std::scoped_lock lock(reg_mu_, counts_mu_);
    sample_locked();
  }
}

void SchedProfiler::sample_locked() {
  for (const Slot& slot : slots_) {
    const std::uint64_t s = slot.state.load(std::memory_order_acquire);
    if ((s >> 63) == 0) continue;  // inactive
    const auto phase = static_cast<std::uint32_t>((s >> 32) & 0xff);
    const int rank = static_cast<int>(static_cast<std::uint32_t>(s)) - 1;
    ++counts_[{slot.worker_index, phase, rank}];
    ++total_samples_;
  }
}

void SchedProfiler::sample_now() {
  std::scoped_lock lock(reg_mu_, counts_mu_);
  sample_locked();
}

SchedProfiler::WorkerHandle SchedProfiler::register_worker(int worker_index) {
  WorkerHandle h;
  if (!enabled_.load(std::memory_order_acquire)) return h;
  std::lock_guard<std::mutex> lock(reg_mu_);
  std::size_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = slots_.size();
    slots_.emplace_back();
  }
  slots_[idx].worker_index = worker_index;
  slots_[idx].state.store(pack(true, SchedPhase::kIdle, -1), std::memory_order_release);
  h.prof_ = this;
  h.slot_ = idx;
  return h;
}

SchedProfiler::WorkerHandle& SchedProfiler::WorkerHandle::operator=(
    WorkerHandle&& other) noexcept {
  if (this != &other) {
    release();
    prof_ = other.prof_;
    slot_ = other.slot_;
    other.prof_ = nullptr;
  }
  return *this;
}

void SchedProfiler::WorkerHandle::set_phase(SchedPhase ph, int rank) noexcept {
  if (prof_ == nullptr) return;
  prof_->slots_[slot_].state.store(pack(true, ph, rank), std::memory_order_release);
}

void SchedProfiler::WorkerHandle::release() noexcept {
  if (prof_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(prof_->reg_mu_);
    prof_->slots_[slot_].state.store(0, std::memory_order_release);
    prof_->free_slots_.push_back(slot_);
  }
  prof_ = nullptr;
}

std::vector<SchedProfiler::Row> SchedProfiler::report() const {
  std::lock_guard<std::mutex> lock(counts_mu_);
  std::vector<Row> out;
  out.reserve(counts_.size());
  for (const auto& [key, n] : counts_) {
    Row r;
    r.worker = std::get<0>(key);
    r.phase = static_cast<SchedPhase>(std::get<1>(key));
    r.rank = std::get<2>(key);
    r.samples = n;
    out.push_back(r);
  }
  // std::map iteration is already (worker, phase, rank)-ordered.
  return out;
}

std::uint64_t SchedProfiler::total_samples() const {
  std::lock_guard<std::mutex> lock(counts_mu_);
  return total_samples_;
}

std::string SchedProfiler::collapsed(int top_ranks) const {
  if (top_ranks <= 0) top_ranks = opts_.top_ranks > 0 ? opts_.top_ranks : 20;
  const auto rows = report();

  // frame string -> samples; fiber_run keeps the per-worker top-N ranks and
  // folds the rest into rank_other.
  std::map<std::string, std::uint64_t> frames;
  std::map<int, std::vector<Row>> fiber_by_worker;
  for (const Row& r : rows) {
    const std::string base = "isoee_engine;worker_" + std::to_string(r.worker) + ";" +
                             sched_phase_name(r.phase);
    if (r.phase == SchedPhase::kFiberRun && r.rank >= 0) {
      fiber_by_worker[r.worker].push_back(r);
    } else {
      frames[base] += r.samples;
    }
  }
  for (auto& [worker, runs] : fiber_by_worker) {
    std::stable_sort(runs.begin(), runs.end(), [](const Row& a, const Row& b) {
      if (a.samples != b.samples) return a.samples > b.samples;
      return a.rank < b.rank;
    });
    const std::string base =
        "isoee_engine;worker_" + std::to_string(worker) + ";fiber_run";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (static_cast<int>(i) < top_ranks) {
        frames[base + ";rank_" + std::to_string(runs[i].rank)] += runs[i].samples;
      } else {
        frames[base + ";rank_other"] += runs[i].samples;
      }
    }
  }

  std::string out;
  for (const auto& [frame, n] : frames) {
    out += frame + " " + std::to_string(n) + "\n";
  }
  return out;
}

bool SchedProfiler::write_collapsed(const std::string& path, int top_ranks) const {
  const std::string body = collapsed(top_ranks);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    ISOEE_ERROR("SchedProfiler: cannot open %s", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (!ok) ISOEE_ERROR("SchedProfiler: short write to %s", path.c_str());
  return ok;
}

void SchedProfiler::reset() {
  std::lock_guard<std::mutex> lock(counts_mu_);
  counts_.clear();
  total_samples_ = 0;
}

}  // namespace isoee::obs
