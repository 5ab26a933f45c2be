// Sanitizer feature detection for the simulator's hand-managed memory.
//
// Defines ISOEE_ASAN / ISOEE_TSAN when the translation unit is built with
// AddressSanitizer / ThreadSanitizer, under GCC (__SANITIZE_*__) or Clang
// (__has_feature). The fiber switcher uses them for its stack handshakes and
// the engine for the poisoned redzones between run scratch slices.
#pragma once

#include <cstddef>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ISOEE_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define ISOEE_TSAN 1
#endif
#endif
#if !defined(ISOEE_ASAN) && defined(__SANITIZE_ADDRESS__)
#define ISOEE_ASAN 1
#endif
#if !defined(ISOEE_TSAN) && defined(__SANITIZE_THREAD__)
#define ISOEE_TSAN 1
#endif

#if defined(ISOEE_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace isoee::sim {

/// Marks [p, p + bytes) unaddressable under ASan (a no-op otherwise), so any
/// access to it is reported as an overflow.
inline void poison_region(const void* p, std::size_t bytes) {
#if defined(ISOEE_ASAN)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Undoes poison_region.
inline void unpoison_region(const void* p, std::size_t bytes) {
#if defined(ISOEE_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace isoee::sim
