#include "sim/fiber.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <stdexcept>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "sim/sanitizers.hpp"

#if defined(ISOEE_ASAN)
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(ISOEE_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
#define ISOEE_FIBER_ASM 1
#else
#include <ucontext.h>
#endif

namespace isoee::sim::detail {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t v, std::size_t quantum) {
  return (v + quantum - 1) / quantum * quantum;
}

// Pooling is off under sanitizers: a fresh mapping starts with clean shadow
// state, while a reused one would carry the previous fiber's poisoned frames.
#if !defined(ISOEE_ASAN) && !defined(ISOEE_TSAN)
#define ISOEE_FIBER_STACK_POOL 1
#endif

#if defined(ISOEE_FIBER_STACK_POOL)
// Process-global free list of guard-paged stack allocations. Every fiber
// stack has the same size, so any pooled allocation fits any fiber. The
// guard page is installed once at mmap time and stays PROT_NONE for the
// allocation's whole pooled lifetime, so reuse costs a mutex hop instead of
// two syscalls. Capped in virtual bytes; overflow is simply munmapped.
// Leaked deliberately: fibers owned by statics may be destroyed during
// process teardown, after a function-local static pool would already be gone.
struct StackPool {
  static constexpr std::size_t kMaxBytes = std::size_t(2) << 30;  // virtual, mostly untouched
  std::mutex mu;
  std::vector<unsigned char*> free;
  std::size_t bytes = 0;
};

StackPool& stack_pool() {
  static StackPool* pool = new StackPool;
  return *pool;
}
#endif  // ISOEE_FIBER_STACK_POOL

}  // namespace

void fiber_entry_shim(Fiber* f);  // friend of Fiber; reached from the trampoline

std::size_t Fiber::default_stack_bytes() {
#if defined(ISOEE_ASAN) || defined(ISOEE_TSAN)
  return 1024 * 1024;  // instrumented frames + redzones need headroom
#else
  return 256 * 1024;
#endif
}

// --- raw context switch ------------------------------------------------------

#if defined(ISOEE_FIBER_ASM)

// x86-64 System V switch. The suspended-frame layout (growing down from the
// saved rsp) is:
//   +0x00..0x2f  rbx rbp r12 r13 r14 r15
//   +0x30        mxcsr (4 bytes)     +0x34  x87 control word (2 bytes)
//   +0x38        return address consumed by `ret`
// A freshly created fiber fabricates this frame so the first switch "returns"
// into the trampoline with r12 = Fiber*. The red zone is fair game: the ABI
// does not preserve it across calls, and isoee_fiber_swap is always a call.
extern "C" {
void isoee_fiber_swap(void** save_sp, void* restore_sp);
void isoee_fiber_trampoline();
void isoee_fiber_entry(void* self);
}

asm(R"(
.text
.globl isoee_fiber_swap
.hidden isoee_fiber_swap
.type isoee_fiber_swap,@function
.align 16
isoee_fiber_swap:
  .cfi_startproc
  lea -0x38(%rsp), %rsp
  mov %rbx, 0x00(%rsp)
  mov %rbp, 0x08(%rsp)
  mov %r12, 0x10(%rsp)
  mov %r13, 0x18(%rsp)
  mov %r14, 0x20(%rsp)
  mov %r15, 0x28(%rsp)
  stmxcsr 0x30(%rsp)
  fnstcw 0x34(%rsp)
  mov %rsp, (%rdi)
  mov %rsi, %rsp
  mov 0x00(%rsp), %rbx
  mov 0x08(%rsp), %rbp
  mov 0x10(%rsp), %r12
  mov 0x18(%rsp), %r13
  mov 0x20(%rsp), %r14
  mov 0x28(%rsp), %r15
  ldmxcsr 0x30(%rsp)
  fldcw 0x34(%rsp)
  lea 0x38(%rsp), %rsp
  ret
  .cfi_endproc
.size isoee_fiber_swap,.-isoee_fiber_swap

.globl isoee_fiber_trampoline
.hidden isoee_fiber_trampoline
.type isoee_fiber_trampoline,@function
.align 16
isoee_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined rip
  mov %r12, %rdi
  call isoee_fiber_entry
  ud2
  .cfi_endproc
.size isoee_fiber_trampoline,.-isoee_fiber_trampoline
)");

extern "C" void isoee_fiber_entry(void* self) {
  fiber_entry_shim(static_cast<Fiber*>(self));
}

#else  // !ISOEE_FIBER_ASM

// makecontext passes arguments as ints, so a 64-bit pointer rides in two.
extern "C" void isoee_fiber_entry_uctx(unsigned int hi, unsigned int lo) {
  const std::uintptr_t p =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  fiber_entry_shim(reinterpret_cast<Fiber*>(p));
}

#endif  // ISOEE_FIBER_ASM

// Shared landing pad for both backends: completes the sanitizer handshake,
// then runs the user entry, which must never return.
[[noreturn]] void Fiber::entry_thunk(Fiber* self) {
#if defined(ISOEE_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  self->entry_(self->arg_);
  std::abort();  // entry contract: leave via exit_to, never return
}

void fiber_entry_shim(Fiber* f) { Fiber::entry_thunk(f); }

// --- fiber lifecycle ---------------------------------------------------------

void Fiber::create(Entry entry, void* arg) {
  if (sp_ != nullptr || adopted_) throw std::logic_error("Fiber::create: already armed");
  const std::size_t ps = page_size();
  stack_size_ = round_up(default_stack_bytes(), ps);
  alloc_size_ = stack_size_ + ps;  // + guard page at the low end
#if defined(ISOEE_FIBER_STACK_POOL)
  {
    StackPool& pool = stack_pool();
    std::lock_guard<std::mutex> lk(pool.mu);
    if (!pool.free.empty()) {
      alloc_base_ = pool.free.back();
      pool.free.pop_back();
      pool.bytes -= alloc_size_;
    }
  }
#endif
  if (alloc_base_ == nullptr) {
    void* base = ::mmap(nullptr, alloc_size_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    alloc_base_ = static_cast<unsigned char*>(base);
    // Stacks grow down; a PROT_NONE page below the usable range turns overflow
    // into a clean fault instead of silent corruption of a neighbouring stack.
    if (::mprotect(alloc_base_, ps, PROT_NONE) != 0) {
      ::munmap(base, alloc_size_);
      alloc_base_ = nullptr;
      throw std::runtime_error("Fiber: mprotect(guard) failed");
    }
  }
  stack_lo_ = alloc_base_ + ps;
  entry_ = entry;
  arg_ = arg;

#if defined(ISOEE_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif

#if defined(ISOEE_FIBER_ASM)
  // Fabricate the suspended frame described above isoee_fiber_swap.
  std::uintptr_t top = reinterpret_cast<std::uintptr_t>(stack_lo_) + stack_size_;
  top &= ~static_cast<std::uintptr_t>(15);  // trampoline runs with rsp 16-aligned
  auto* frame = reinterpret_cast<std::uintptr_t*>(top - 8 - 0x38);
  std::memset(frame, 0, 0x38);
  frame[2] = reinterpret_cast<std::uintptr_t>(this);  // r12 -> trampoline's rdi
  // Default FP environment (round-to-nearest, exceptions masked): the switch
  // restores these words on every resume, so all fibers start from the same
  // deterministic FP state regardless of what the host thread was doing.
  auto* fpu = reinterpret_cast<unsigned char*>(frame) + 0x30;
  const std::uint32_t mxcsr = 0x1f80;
  const std::uint16_t fcw = 0x037f;
  std::memcpy(fpu, &mxcsr, sizeof(mxcsr));
  std::memcpy(fpu + 4, &fcw, sizeof(fcw));
  frame[7] = reinterpret_cast<std::uintptr_t>(&isoee_fiber_trampoline);
  sp_ = frame;
#else
  auto* uc = new ucontext_t;
  if (::getcontext(uc) != 0) {
    delete uc;
    throw std::runtime_error("Fiber: getcontext failed");
  }
  uc->uc_stack.ss_sp = stack_lo_;
  uc->uc_stack.ss_size = stack_size_;
  uc->uc_link = nullptr;
  const std::uintptr_t self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(uc, reinterpret_cast<void (*)()>(&isoee_fiber_entry_uctx), 2,
                static_cast<unsigned int>(self >> 32),
                static_cast<unsigned int>(self & 0xffffffffu));
  uctx_ = uc;
  sp_ = uc;  // non-null marks the fiber armed
#endif
}

void Fiber::adopt_thread() {
  if (sp_ != nullptr || adopted_) throw std::logic_error("Fiber::adopt_thread: busy");
  adopted_ = true;
#if defined(ISOEE_ASAN)
  // ASan needs the real bounds of the stack a switch returns to; an empty
  // range makes it mistrack this thread's stack after the first switch back.
  pthread_attr_t attr{};
  if (::pthread_getattr_np(::pthread_self(), &attr) == 0) {
    void* lo = nullptr;
    std::size_t size = 0;
    if (::pthread_attr_getstack(&attr, &lo, &size) == 0) {
      stack_lo_ = lo;
      stack_size_ = size;
    }
    ::pthread_attr_destroy(&attr);
  }
#endif
#if defined(ISOEE_TSAN)
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
#if !defined(ISOEE_FIBER_ASM)
  uctx_ = new ucontext_t;
#endif
}

void Fiber::release_thread() {
  if (!adopted_) return;
  adopted_ = false;
  tsan_fiber_ = nullptr;
  stack_lo_ = nullptr;
  stack_size_ = 0;
#if !defined(ISOEE_FIBER_ASM)
  delete static_cast<ucontext_t*>(uctx_);
  uctx_ = nullptr;
#endif
}

Fiber::~Fiber() {
#if defined(ISOEE_TSAN)
  if (tsan_fiber_ != nullptr && !adopted_) __tsan_destroy_fiber(tsan_fiber_);
#endif
#if !defined(ISOEE_FIBER_ASM)
  if (!adopted_ && uctx_ != nullptr) delete static_cast<ucontext_t*>(uctx_);
#endif
  if (alloc_base_ != nullptr) {
#if defined(ISOEE_FIBER_STACK_POOL)
    StackPool& pool = stack_pool();
    std::unique_lock<std::mutex> lk(pool.mu);
    if (pool.bytes + alloc_size_ <= StackPool::kMaxBytes) {
      pool.free.push_back(alloc_base_);
      pool.bytes += alloc_size_;
      alloc_base_ = nullptr;
    }
    lk.unlock();
#endif
    if (alloc_base_ != nullptr) ::munmap(alloc_base_, alloc_size_);
  }
}

std::size_t Fiber::pooled_stacks() {
#if defined(ISOEE_FIBER_STACK_POOL)
  StackPool& pool = stack_pool();
  std::lock_guard<std::mutex> lk(pool.mu);
  return pool.free.size();
#else
  return 0;
#endif
}

void Fiber::do_switch(Fiber& from, Fiber& to, bool from_is_dying) {
#if defined(ISOEE_ASAN)
  __sanitizer_start_switch_fiber(from_is_dying ? nullptr : &from.asan_fake_stack_,
                                 to.stack_lo_, to.stack_size_);
#else
  (void)from_is_dying;
#endif
#if defined(ISOEE_TSAN)
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(ISOEE_FIBER_ASM)
  isoee_fiber_swap(&from.sp_, to.sp_);
#else
  ::swapcontext(static_cast<ucontext_t*>(from.uctx_), static_cast<ucontext_t*>(to.uctx_));
#endif
  // Running again as `from` (unreachable when from_is_dying).
#if defined(ISOEE_ASAN)
  __sanitizer_finish_switch_fiber(from.asan_fake_stack_, nullptr, nullptr);
  from.asan_fake_stack_ = nullptr;
#endif
}

void Fiber::switch_to(Fiber& from, Fiber& to) { do_switch(from, to, false); }

[[noreturn]] void Fiber::exit_to(Fiber& from, Fiber& to) {
  do_switch(from, to, true);
  std::abort();  // a dead fiber is never resumed
}

}  // namespace isoee::sim::detail
