// Run-to-completion fiber scheduler: the concurrency core of the engine.
//
// Every simulated rank is a stackful fiber (fiber.hpp) pinned to one of a
// small pool of OS worker threads (rank r belongs to worker r % W). A fiber
// runs until it *blocks* — a receive whose message has not arrived — then the
// worker switches to the next ready fiber of its shard. Within a shard, ready
// fibers are dispatched in deterministic virtual-time order: smallest rank
// virtual clock first, ties to the lowest rank id.
//
// Mailboxes are sharded per rank (one fine-grained lock each, FIFO queues
// keyed by (src, tag)). A mailbox holds only its live channels — those with a
// queued message — so its size follows the messages in flight, not the number
// of channels a run ever used. Queue nodes and payload buffers are recycled
// through a per-rank free list and a size-classed payload pool that lives and
// dies with the run, so a warm mailbox delivers a message without touching
// the heap. Delivery to a blocked rank re-enqueues it on its owner worker's
// inbox and wakes that worker. Because virtual clocks are strictly per rank,
// message matching is FIFO per channel, and wildcards do not exist, *every*
// dispatch order yields bit-identical results — worker count and
// perturbation change only host execution order, never a virtual-time
// observable. (src/check's perturbed and cross-worker digest oracles assert
// exactly this.)
//
// Payload copies: every receive (take) copies into a buffer its caller owns.
// A send copies its bytes at once (eager semantics), into a pooled buffer
// queued in the receiver's mailbox, and the receive copies them out again and
// returns the buffer to the pool: two copies. A receive that has to block
// waits with its destination buffer instead, and a delivery on its channel of
// exactly that size is copied straight into the buffer and never queued: one
// copy. A message of another size is queued, so the receive sees the
// mismatch as before. Stats::bytes_copied counts every copy.
//
// Failure protocol: the first rank body to throw records the root-cause
// exception and poisons every mailbox; blocked peers are re-enqueued, drain
// any messages that already arrived, then unwind with RankAbandoned. The
// scheduler also detects true deadlock (all live ranks blocked, nothing
// ready anywhere) and turns it into a thrown error instead of a hang. All
// fibers are always driven to completion — unwound or finished — before
// run() returns, so no fiber stack ever leaks.
//
// Perturbation: maybe_yield() implements PerturbSpec as a seeded
// *virtual-scheduler* reordering. The yielding fiber is re-enqueued
// with its dispatch key pushed `delay_us` virtual microseconds into the
// future, letting peers (e.g. racing senders) overtake it. No host sleeps:
// perturbed runs cost the same as quiet ones and still stress mailbox
// buildup and tag recycling.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/fiber.hpp"

namespace isoee::sim::detail {

class FiberScheduler {
 public:
  /// Statistics of one scheduled run (summed over workers; the high-water
  /// marks are the largest any one rank's mailbox reached).
  struct Stats {
    std::uint64_t dispatches = 0;   // fiber resumes (starts + wakeups + yields)
    std::uint64_t messages = 0;     // deliveries through the mailboxes
    std::size_t channels_max = 0;   // live (src, tag) channels in one mailbox
    std::size_t pool_bytes_max = 0; // idle payload bytes in one rank's pool
    std::uint64_t bytes_copied = 0; // payload bytes memcpy'd by deliveries and receives
  };

  /// Idle payload bytes one rank's pool may keep for reuse: an even share of
  /// kPoolRunBytes rounded down to a power of two, at most kPoolCapBytes.
  /// Pools are per rank, so without the run-wide split a wide run would pin
  /// one full cap per rank. A buffer larger than the cap, or one that would
  /// push the pool past it, is freed instead.
  static constexpr std::size_t kPoolCapBytes = std::size_t{1} << 20;
  static constexpr std::size_t kPoolRunBytes = std::size_t{16} << 20;
  static std::size_t pool_cap_bytes(int nranks) {
    return std::min(kPoolCapBytes,
                    std::bit_floor(kPoolRunBytes / static_cast<std::size_t>(nranks)));
  }

  /// `workers` OS threads multiplex the fibers (clamped to [1, nranks]).
  FiberScheduler(int nranks, int workers);
  ~FiberScheduler();
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Runs `body(rank)` for every rank on the worker pool, to completion.
  /// Returns the first (root-cause) exception, or nullptr on success. Every
  /// fiber is guaranteed to have finished or fully unwound on return.
  std::exception_ptr run(const std::function<void(int)>& body);

  const Stats& stats() const { return stats_; }

  // --- primitives called from rank fibers -----------------------------------

  /// The arrival time and payload size of a message take() consumed.
  struct Received {
    double arrival = 0.0;
    std::size_t bytes = 0;
  };

  /// Blocking FIFO receive on (src, tag) into `out`. `now` is the rank's
  /// current virtual clock, used as the dispatch key if the fiber must block.
  /// The payload is copied into `out` when its size is out.size(), and the
  /// message is consumed either way (the caller reports a mismatch). A queued
  /// message is copied out of its pooled buffer, which goes back to the pool;
  /// if the rank blocks, a matching deliver() copies straight into `out`.
  /// Throws RankAbandoned if the mailbox is poisoned and the channel is empty.
  Received take(int rank, int src, int tag, double now, std::span<std::byte> out);

  /// Copies `payload` to dst: straight into the buffer of a take() that
  /// blocks on exactly this channel and has its size, otherwise into a buffer
  /// from dst's pool, queued in dst's mailbox. Wakes dst if it blocks on this
  /// channel.
  void deliver(int dst, int src, int tag, double arrival,
               std::span<const std::byte> payload);

  /// Seeded scheduler-order perturbation: suspends the calling rank and
  /// re-enqueues it `delay_us` virtual microseconds later in dispatch order.
  void maybe_yield(int rank, double now, std::uint32_t delay_us);

 private:
  struct ReadyItem {
    double key = 0.0;  // dispatch order: rank virtual clock (+ perturb delay)
    int rank = 0;
  };

  struct RankSlot;
  struct Worker;

  static std::uint64_t channel_key(int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  void worker_loop(int w);
  void dispatch(Worker& wk, int rank);
  void enqueue_ready(int rank, double key);
  void suspend(RankSlot& slot);
  void block(RankSlot& slot, std::uint64_t key, double now, std::span<std::byte> out,
             std::unique_lock<std::mutex>& lk);
  void poison_all();
  void stop_all();
  void on_idle(Worker& wk);
  [[noreturn]] static void fiber_main(void* arg);

  void record_deadlock();

  int nranks_;
  // One-worker runs (the common case: hundreds of small study cases, where
  // exec::Executor parallelizes across cases instead) execute the whole
  // schedule on the calling thread, so every mailbox lock, inbox hand-off,
  // and cv wakeup is skipped — deliveries push straight into the lone
  // worker's ready heap.
  bool single_ = true;
  const std::function<void(int)>* body_ = nullptr;
  std::vector<std::unique_ptr<RankSlot>> slots_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex err_mu_;
  std::exception_ptr first_error_;

  std::mutex idle_mu_;              // guards idle bookkeeping + deadlock check
  int idle_workers_ = 0;
  std::atomic<int> done_count_{0};
  std::atomic<std::uint64_t> ready_total_{0};  // enqueued, not yet dispatched
  std::atomic<bool> stop_{false};

  Stats stats_;
};

}  // namespace isoee::sim::detail
