#include "sim/sched.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <optional>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/sched_profiler.hpp"
#include "sim/engine.hpp"  // RankAbandoned

namespace isoee::sim::detail {

// A rank's mailbox: the messages queued for it, matched FIFO per channel.
//
// The index holds an entry only for a *live* channel — one with a queued
// message — and pop() erases the entry when it drains the channel. That keeps
// the mailbox as small as the messages in flight: collectives lease a fresh
// tag range per call, so almost every message arrives on a channel never
// seen before, and a mailbox that kept every channel it ever saw grew with
// the run's message count. Everything else is recycled in place: the index
// is an open-addressing table, each channel's FIFO is a linked list through
// a node arena with a free list, and payload buffers come from a pool of
// power-of-two size classes. Once warm, a message costs no heap allocation.
class Mailbox {
 public:
  explicit Mailbox(std::size_t pool_cap) : pool_cap_(pool_cap) {}

  // Queues a copy of `payload` on channel `key`, behind its earlier messages.
  void push(std::uint64_t key, double arrival, std::span<const std::byte> payload) {
    const std::uint32_t n = alloc_node();
    Node& node = nodes_[n];
    node.msg.arrival = arrival;
    node.msg.payload = acquire(payload.size());
    node.msg.payload.assign(payload.begin(), payload.end());
    node.next = kNil;
    Entry* e = find(key);
    if (e == nullptr) {
      e = &insert(key);
      e->head = n;
    } else {
      nodes_[e->tail].next = n;
    }
    e->tail = n;
  }

  // Moves the oldest message of channel `key` into `out`; false if none is
  // queued. Draining the channel removes it from the index.
  bool pop(std::uint64_t key, SimMessage& out) {
    Entry* e = find(key);
    if (e == nullptr) return false;
    const std::uint32_t n = e->head;
    out = std::move(nodes_[n].msg);
    e->head = nodes_[n].next;
    nodes_[n].next = free_node_;
    free_node_ = n;
    if (e->head == kNil) erase(*e);
    return true;
  }

  // Keeps `buf` for a later push(), unless the pool is full or `buf` is
  // bigger than the whole pool may be; then it is freed here.
  void recycle(std::vector<std::byte> buf) {
    const std::size_t cap = buf.capacity();
    if (cap == 0 || pool_bytes_ + cap > pool_cap_) return;
    if (!pool_) pool_ = std::make_unique<Pool>();
    buf.clear();
    (*pool_)[static_cast<std::size_t>(std::bit_width(cap) - 1)].push_back(std::move(buf));
    pool_bytes_ += cap;
    pool_bytes_max_ = std::max(pool_bytes_max_, pool_bytes_);
  }

  std::size_t channels_max() const { return live_max_; }
  std::size_t pool_bytes_max() const { return pool_bytes_max_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // channel_key() packs two non-negative ints, so all-ones is never a key.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kClasses =
      static_cast<std::size_t>(std::bit_width(FiberScheduler::kPoolCapBytes));

  // Idle buffers by size class: class c holds capacity 2^c.
  using Pool = std::array<std::vector<std::vector<std::byte>>, kClasses>;

  struct Node {
    SimMessage msg;
    std::uint32_t next = kNil;
  };
  struct Entry {
    std::uint64_t key = kEmpty;
    std::uint32_t head = kNil;  // oldest queued message (node index)
    std::uint32_t tail = kNil;  // newest
  };

  std::uint32_t alloc_node() {
    if (free_node_ == kNil) {
      nodes_.emplace_back();
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    const std::uint32_t n = free_node_;
    free_node_ = nodes_[n].next;
    return n;
  }

  // A buffer with capacity for `bytes`: from the pool when one of the right
  // size class is idle, else freshly reserved at the class size so it can be
  // pooled later. Empty payloads need no buffer, and one above the cap gets
  // an exact-size buffer that recycle() will free.
  std::vector<std::byte> acquire(std::size_t bytes) {
    std::vector<std::byte> buf;
    if (bytes == 0 || bytes > pool_cap_) return buf;
    const auto cls = static_cast<std::size_t>(std::bit_width(bytes - 1));
    if (!pool_ || (*pool_)[cls].empty()) {
      buf.reserve(std::size_t{1} << cls);
      return buf;
    }
    std::vector<std::vector<std::byte>>& idle = (*pool_)[cls];
    buf = std::move(idle.back());
    idle.pop_back();
    pool_bytes_ -= buf.capacity();
    return buf;
  }

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  Entry* find(std::uint64_t key) {
    if (table_.empty()) return nullptr;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      if (table_[i].key == key) return &table_[i];
      if (table_[i].key == kEmpty) return nullptr;
    }
  }

  // Adds an entry for a key not in the table, growing it to stay at most
  // half full (so probes stay short and always end at an empty slot).
  Entry& insert(std::uint64_t key) {
    if (2 * (live_ + 1) > table_.size()) rehash(std::max<std::size_t>(8, 2 * table_.size()));
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(key);
    while (table_[i].key != kEmpty) i = (i + 1) & mask;
    table_[i].key = key;
    live_max_ = std::max(live_max_, ++live_);
    return table_[i];
  }

  // Backward-shift deletion: later entries of the probe run move into the
  // hole unless that would put them before their home slot, so no
  // tombstones accumulate.
  void erase(Entry& e) {
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = static_cast<std::size_t>(&e - table_.data());
    for (std::size_t j = (hole + 1) & mask; table_[j].key != kEmpty; j = (j + 1) & mask) {
      const std::size_t h = home(table_[j].key);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (!stays) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = Entry{};
    --live_;
  }

  void rehash(std::size_t size) {
    std::vector<Entry> old(size);
    old.swap(table_);
    shift_ = 64 - std::countr_zero(size);
    live_ = 0;
    for (const Entry& e : old) {
      if (e.key != kEmpty) insert(e.key) = e;
    }
  }

  std::size_t pool_cap_;
  std::vector<Entry> table_;  // size 0 or a power of two
  int shift_ = 64;
  std::size_t live_ = 0;
  std::size_t live_max_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNil;
  // Created by the first recycle(): a rank that receives nothing (or only
  // empty messages) pays nothing for it at construction or teardown.
  std::unique_ptr<Pool> pool_;
  std::size_t pool_bytes_ = 0;
  std::size_t pool_bytes_max_ = 0;
};

// One simulated rank: its fiber, its mailbox, and its scheduling state.
//
// Locking: `mu` guards only the mailbox (box/delivered/bytes_copied) and the
// blocked/waiting/filled/poisoned fields — the handshake between a rank
// blocking in take() or take_into() and a peer delivering into its mailbox.
// All other fields are touched only by the slot's owner worker (or
// single-threadedly in run()), so they need no lock.
struct FiberScheduler::RankSlot {
  explicit RankSlot(std::size_t pool_cap) : box(pool_cap) {}

  Fiber fiber;
  FiberScheduler* sched = nullptr;
  int rank = 0;
  int owner = 0;          // worker index (rank % workers)
  Fiber* resume_to = nullptr;  // owner worker's home context while running

  enum class State { kRunning, kBlocked, kYield, kDone };
  State state = State::kRunning;  // read by the owner worker after switch-out
  double yield_key = 0.0;         // dispatch key for a kYield re-enqueue

  // --- mailbox (guarded by mu) ---
  std::mutex mu;
  Mailbox box;
  std::uint64_t waiting_key = 0;
  bool blocked = false;     // parked in take()/take_into(), waiting on waiting_key
  bool poisoned = false;
  double block_key = 0.0;   // virtual clock at block time: the wakeup key
  // A blocked take_into()'s destination (null in take()). deliver() writes
  // into it only while `blocked` is set, and clears `blocked` as it does, so
  // no write can land after the receive has returned or unwound.
  std::span<std::byte>* waiting_out = nullptr;
  std::optional<double> filled_arrival;  // set when deliver() wrote *waiting_out
  std::uint64_t delivered = 0;
  std::uint64_t bytes_copied = 0;
};

struct FiberScheduler::Worker {
  int id = 0;
  Fiber home;               // the OS thread's own context, adopted in worker_loop
  std::uint64_t dispatches = 0;
  // Host-time profiler slot. Disengaged (a single null-check per set_phase)
  // unless the process-wide SchedProfiler is sampling.
  obs::SchedProfiler::WorkerHandle prof;

  // Ready fibers of this shard, dispatched smallest (key, rank) first.
  struct Cmp {
    bool operator()(const ReadyItem& a, const ReadyItem& b) const {
      return a.key > b.key || (a.key == b.key && a.rank > b.rank);
    }
  };
  std::priority_queue<ReadyItem, std::vector<ReadyItem>, Cmp> heap;

  // Cross-thread wakeups land here; the owner drains them into `heap`.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ReadyItem> inbox;

  std::thread thread;
};

FiberScheduler::FiberScheduler(int nranks, int workers) : nranks_(nranks) {
  if (nranks <= 0) throw std::invalid_argument("FiberScheduler: nranks must be > 0");
  workers = std::clamp(workers, 1, nranks);
  single_ = workers == 1;
  slots_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto slot = std::make_unique<RankSlot>(pool_cap_bytes(nranks));
    slot->sched = this;
    slot->rank = r;
    slot->owner = r % workers;
    slots_.push_back(std::move(slot));
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->id = w;
  }
}

FiberScheduler::~FiberScheduler() = default;

std::exception_ptr FiberScheduler::run(const std::function<void(int)>& body) {
  body_ = &body;
  // Arm every fiber and seed the ready heaps in rank order at virtual time 0.
  // This runs single-threaded: no locks needed for the direct heap pushes.
  for (auto& slot : slots_) {
    slot->fiber.create(&FiberScheduler::fiber_main, slot.get());
    workers_[static_cast<std::size_t>(slot->owner)]->heap.push(
        ReadyItem{0.0, slot->rank});
  }
  ready_total_.store(static_cast<std::uint64_t>(nranks_), std::memory_order_relaxed);

  if (single_) {
    // Hot path for the hundreds of small study cases: run the whole schedule
    // inline on the calling thread — no thread spawn, no cv traffic.
    worker_loop(0);
  } else {
    for (auto& wk : workers_) {
      Worker* w = wk.get();
      w->thread = std::thread([this, w] { worker_loop(w->id); });
    }
    for (auto& wk : workers_) wk->thread.join();
  }

  stats_ = Stats{};
  for (const auto& wk : workers_) stats_.dispatches += wk->dispatches;
  for (const auto& slot : slots_) {
    stats_.messages += slot->delivered;
    stats_.channels_max = std::max(stats_.channels_max, slot->box.channels_max());
    stats_.pool_bytes_max = std::max(stats_.pool_bytes_max, slot->box.pool_bytes_max());
    stats_.bytes_copied += slot->bytes_copied;
  }
  body_ = nullptr;
  return first_error_;
}

void FiberScheduler::worker_loop(int w) {
  Worker& wk = *workers_[static_cast<std::size_t>(w)];
  wk.home.adopt_thread();
  obs::SchedProfiler& prof = obs::sched_profiler();
  if (prof.enabled()) wk.prof = prof.register_worker(w);
  std::vector<ReadyItem> drained;
  for (;;) {
    wk.prof.set_phase(obs::SchedPhase::kHeapDispatch);
    if (!single_) {
      {
        std::lock_guard<std::mutex> lk(wk.mu);
        if (!wk.inbox.empty()) drained.swap(wk.inbox);
      }
      for (const ReadyItem& it : drained) wk.heap.push(it);
      drained.clear();
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (wk.heap.empty()) {
      if (single_) {
        // Sole worker with nothing ready: either everything finished (stop_
        // caught above next iteration) or every live rank is blocked — no
        // other thread exists to wake them, so that is a deadlock right now.
        if (done_count_.load(std::memory_order_relaxed) < nranks_) {
          record_deadlock();  // poisons mailboxes, re-enqueueing blocked ranks
          if (!wk.heap.empty()) continue;
        }
        break;
      }
      on_idle(wk);
      continue;
    }
    const ReadyItem item = wk.heap.top();
    wk.heap.pop();
    if (!single_) ready_total_.fetch_sub(1, std::memory_order_relaxed);
    dispatch(wk, item.rank);
  }
  wk.prof.set_phase(obs::SchedPhase::kIdle);
  wk.prof.release();
  wk.home.release_thread();
}

void FiberScheduler::dispatch(Worker& wk, int rank) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
  slot.resume_to = &wk.home;
  slot.state = RankSlot::State::kRunning;
  ++wk.dispatches;
  wk.prof.set_phase(obs::SchedPhase::kFiberRun, rank);
  Fiber::switch_to(wk.home, slot.fiber);
  wk.prof.set_phase(obs::SchedPhase::kHeapDispatch);
  // The fiber has switched back: blocked, yielded, or finished.
  switch (slot.state) {
    case RankSlot::State::kBlocked:
      break;  // a matching deliver() (or poison) re-enqueues it
    case RankSlot::State::kYield:
      enqueue_ready(rank, slot.yield_key);
      break;
    case RankSlot::State::kDone:
      if (done_count_.fetch_add(1, std::memory_order_acq_rel) + 1 == nranks_) {
        stop_all();
      }
      break;
    case RankSlot::State::kRunning:
      throw std::logic_error("FiberScheduler: fiber switched out while running");
  }
}

void FiberScheduler::enqueue_ready(int rank, double key) {
  Worker& wk = *workers_[static_cast<std::size_t>(slots_[static_cast<std::size_t>(rank)]->owner)];
  if (single_) {
    // Everything runs on the one worker thread: push straight into its heap.
    wk.heap.push(ReadyItem{key, rank});
    return;
  }
  ready_total_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(wk.mu);
    wk.inbox.push_back(ReadyItem{key, rank});
  }
  wk.cv.notify_one();
}

void FiberScheduler::suspend(RankSlot& slot) {
  Fiber::switch_to(slot.fiber, *slot.resume_to);
}

// Parks the calling rank on channel `key` until a deliver() on it or a
// poison wakes it; `out`, if not null, is where a delivery of its size may be
// copied. `lk` holds slot.mu (multi-worker runs) on entry and exit.
void FiberScheduler::block(RankSlot& slot, std::uint64_t key, double now,
                           std::span<std::byte>* out, std::unique_lock<std::mutex>& lk) {
  slot.waiting_key = key;
  slot.waiting_out = out;
  slot.block_key = now;
  slot.blocked = true;
  slot.state = RankSlot::State::kBlocked;
  if (!single_) lk.unlock();
  suspend(slot);
  if (!single_) lk.lock();
}

SimMessage FiberScheduler::take(int rank, int src, int tag, double now) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
  const std::uint64_t key = channel_key(src, tag);
  std::unique_lock<std::mutex> lk(slot.mu, std::defer_lock);
  if (!single_) lk.lock();
  for (;;) {
    // Fast path: the message already arrived — no context switch at all.
    SimMessage msg;
    if (slot.box.pop(key, msg)) return msg;
    if (slot.poisoned) {
      throw RankAbandoned();
    }
    block(slot, key, now, nullptr, lk);
  }
}

FiberScheduler::Received FiberScheduler::take_into(int rank, int src, int tag, double now,
                                                   std::span<std::byte> out) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
  const std::uint64_t key = channel_key(src, tag);
  std::unique_lock<std::mutex> lk(slot.mu, std::defer_lock);
  if (!single_) lk.lock();
  for (;;) {
    SimMessage msg;
    if (slot.box.pop(key, msg)) {
      const Received got{msg.arrival, msg.payload.size()};
      // memcpy's nonnull contract forbids an empty payload's null data.
      if (got.bytes == out.size() && got.bytes > 0) {
        std::memcpy(out.data(), msg.payload.data(), got.bytes);
        slot.bytes_copied += got.bytes;
      }
      slot.box.recycle(std::move(msg.payload));
      return got;
    }
    if (slot.poisoned) {
      throw RankAbandoned();
    }
    block(slot, key, now, &out, lk);
    if (slot.filled_arrival) {
      const Received got{*slot.filled_arrival, out.size()};
      slot.filled_arrival.reset();
      return got;
    }
    // Woken by a message of another size (now queued) or by poison.
  }
}

void FiberScheduler::deliver(int dst, int src, int tag, double arrival,
                             std::span<const std::byte> payload) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(dst)];
  const std::uint64_t key = channel_key(src, tag);
  bool wake = false;
  double wake_key = 0.0;
  {
    std::unique_lock<std::mutex> lk(slot.mu, std::defer_lock);
    if (!single_) lk.lock();
    if (slot.blocked && slot.waiting_key == key) {
      slot.blocked = false;
      wake = true;
      wake_key = slot.block_key;
    }
    if (wake && slot.waiting_out != nullptr && slot.waiting_out->size() == payload.size()) {
      if (!payload.empty()) {
        std::memcpy(slot.waiting_out->data(), payload.data(), payload.size());
      }
      slot.filled_arrival = arrival;
    } else {
      slot.box.push(key, arrival, payload);
    }
    ++slot.delivered;
    slot.bytes_copied += payload.size();
  }
  if (wake) enqueue_ready(dst, wake_key);
}

void FiberScheduler::maybe_yield(int rank, double now, std::uint32_t delay_us) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
  slot.yield_key = now + static_cast<double>(delay_us) * 1e-6;
  slot.state = RankSlot::State::kYield;
  suspend(slot);
}

void FiberScheduler::poison_all() {
  for (auto& sp : slots_) {
    RankSlot& slot = *sp;
    bool wake = false;
    double wake_key = 0.0;
    {
      std::unique_lock<std::mutex> lk(slot.mu, std::defer_lock);
      if (!single_) lk.lock();
      if (slot.poisoned) continue;
      slot.poisoned = true;
      if (slot.blocked) {
        slot.blocked = false;
        wake = true;
        wake_key = slot.block_key;
      }
    }
    // Woken fibers re-check their channel: messages that already arrived are
    // still delivered (in order) before the poison pill throws RankAbandoned.
    if (wake) enqueue_ready(slot.rank, wake_key);
  }
}

void FiberScheduler::stop_all() {
  stop_.store(true, std::memory_order_release);
  if (single_) return;  // the lone worker observes stop_ on its next iteration
  for (auto& wk : workers_) {
    std::lock_guard<std::mutex> lk(wk->mu);  // pairs with the cv.wait predicate
    wk->cv.notify_all();
  }
}

// Records the root-cause deadlock error (all live ranks blocked in recv on
// messages that can never arrive) and poisons the mailboxes so every blocked
// fiber unwinds with RankAbandoned.
void FiberScheduler::record_deadlock() {
  {
    std::lock_guard<std::mutex> elk(err_mu_);
    if (!first_error_) {
      first_error_ = std::make_exception_ptr(std::runtime_error(
          "sim::Engine: deadlock — all live ranks blocked in recv with no "
          "message in flight"));
    }
  }
  poison_all();
}

void FiberScheduler::on_idle(Worker& wk) {
  {
    std::unique_lock<std::mutex> ilk(idle_mu_);
    ++idle_workers_;
    // Deadlock check: every worker idle, nothing enqueued anywhere, yet ranks
    // remain unfinished — no message can ever arrive for them.
    if (idle_workers_ == static_cast<int>(workers_.size()) &&
        ready_total_.load(std::memory_order_acquire) == 0 &&
        done_count_.load(std::memory_order_acquire) < nranks_ &&
        !stop_.load(std::memory_order_acquire)) {
      ilk.unlock();
      record_deadlock();
      ilk.lock();
    }
  }
  {
    wk.prof.set_phase(obs::SchedPhase::kMailboxWait);
    std::unique_lock<std::mutex> lk(wk.mu);
    wk.cv.wait(lk, [&] {
      return !wk.inbox.empty() || stop_.load(std::memory_order_acquire);
    });
    wk.prof.set_phase(obs::SchedPhase::kHeapDispatch);
  }
  {
    std::lock_guard<std::mutex> ilk(idle_mu_);
    --idle_workers_;
  }
}

void FiberScheduler::fiber_main(void* arg) {
  RankSlot& slot = *static_cast<RankSlot*>(arg);
  FiberScheduler& sched = *slot.sched;
  try {
    (*sched.body_)(slot.rank);
  } catch (...) {
    {
      std::lock_guard<std::mutex> elk(sched.err_mu_);
      if (!sched.first_error_) sched.first_error_ = std::current_exception();
    }
    // First failure or not, make sure no peer can wait forever on this rank.
    sched.poison_all();
  }
  slot.state = RankSlot::State::kDone;
  Fiber::exit_to(slot.fiber, *slot.resume_to);
}

}  // namespace isoee::sim::detail
