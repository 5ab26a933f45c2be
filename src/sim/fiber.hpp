// Stackful fibers: the execution substrate of the rank-scale engine.
//
// A Fiber is a cooperatively scheduled execution context with its own
// guarded, mmap-backed stack. Rank bodies run on fibers multiplexed over a
// small pool of OS worker threads (see sched.hpp), so a 10k-rank simulation
// costs 10k small stacks instead of 10k kernel threads: a context switch is
// a ~20 ns register save/restore in user space, not a trip through the
// scheduler and a futex wakeup.
//
// Implementation: on x86-64 a hand-rolled System V switch (callee-saved
// registers + mxcsr/x87 control words, bottom of fiber.cpp); elsewhere a
// portable ucontext fallback. Both paths carry the ASan fake-stack and TSan
// fiber annotations so the sanitizer CI jobs understand the stack switching.
//
// Stacks come from a process-global pool of guard-paged allocations: a sweep
// of hundreds of engine runs (the repo's dominant load) pays the mmap +
// mprotect pair only on its high-water mark of concurrently live fibers,
// not per rank per case. The pool is disabled under sanitizers, where fresh
// mappings keep shadow state trivially clean.
//
// Threading contract: a fiber is only ever resumed by one thread at a time,
// but may migrate between threads across suspensions (the scheduler pins
// ranks to workers, so in practice it never migrates). switch_to must only
// be called on the currently running fiber/thread pair.
#pragma once

#include <cstddef>

namespace isoee::sim::detail {

/// One suspendable execution context. Default-constructed it is empty; it
/// becomes a valid switch target either by `create` (new stack + entry
/// point) or `adopt_thread` (wraps the calling OS thread's native context so
/// fibers have something to switch back to).
class Fiber {
 public:
  using Entry = void (*)(void*);

  Fiber() = default;
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Allocates a guard-paged stack of default_stack_bytes() usable bytes and
  /// arms the fiber so the first switch_to enters `entry(arg)`. `entry` must
  /// never return: a finished fiber leaves by `exit_to` and is never resumed.
  void create(Entry entry, void* arg);

  /// Adopts the calling OS thread's native stack as a switch target. Must be
  /// paired with release_thread on the same thread before destruction.
  void adopt_thread();
  void release_thread();

  /// Suspends `from` (the currently running context) and resumes `to`.
  /// Returns when something switches back into `from`.
  static void switch_to(Fiber& from, Fiber& to);

  /// Final switch out of a finished fiber: like switch_to, but tells the
  /// sanitizers `from` will never run again so its shadow state is retired.
  /// `from` must be a created (not adopted) fiber.
  [[noreturn]] static void exit_to(Fiber& from, Fiber& to);

  /// Usable stack size of every fiber: generous for NPB kernels + smpi
  /// collectives, larger under sanitizers (instrumented frames and redzones
  /// are fatter).
  static std::size_t default_stack_bytes();

  /// Stack allocations currently cached in the process-global reuse pool
  /// (0 when pooling is compiled out under sanitizers). Test hook: after a
  /// run, created-minus-pooled proves no fiber stack leaked.
  static std::size_t pooled_stacks();

 private:
  void* sp_ = nullptr;               // saved stack pointer while suspended
  unsigned char* alloc_base_ = nullptr;  // mmap base (guard page lives here)
  std::size_t alloc_size_ = 0;
  void* stack_lo_ = nullptr;         // lowest usable stack address
  std::size_t stack_size_ = 0;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  void* uctx_ = nullptr;             // ucontext fallback storage (non-x86-64)
  void* tsan_fiber_ = nullptr;
  bool adopted_ = false;
  void* asan_fake_stack_ = nullptr;

  [[noreturn]] static void entry_thunk(Fiber* self);
  static void do_switch(Fiber& from, Fiber& to, bool from_is_dying);

  friend void fiber_entry_shim(Fiber* f);
};

}  // namespace isoee::sim::detail
