// Shared infrastructure for the smpi communication stack: the RAII DVFS gear
// scope used for communication-phase frequency scaling, power-of-two helpers,
// buffer validation, the centralized collective tag allocator, and the ring
// primitive shared by allgather/allgatherv.
//
// Layering (see docs/SMPI.md): core.hpp sits below pt2pt.hpp and
// collectives/*; nothing here depends on algorithm choices.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace isoee::smpi {

/// RAII frequency scope used to implement communication-phase DVFS
/// (Freeh/Ge-style controllers): constructed on collective entry with a
/// positive gear it drops the core to that gear and restores the previous
/// gear on exit. A non-positive gear makes the scope a no-op.
class GearScope {
 public:
  GearScope(sim::RankCtx& ctx, double gear_ghz) : ctx_(&ctx), prev_(ctx.frequency()) {
    if (gear_ghz > 0.0) ctx_->set_frequency(gear_ghz);
  }
  ~GearScope() { ctx_->set_frequency(prev_); }
  GearScope(const GearScope&) = delete;
  GearScope& operator=(const GearScope&) = delete;

 private:
  sim::RankCtx* ctx_;
  double prev_;
};

inline bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

inline int floor_pow2(int x) {
  int p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

inline int ceil_log2(int x) {
  int r = 0;
  int v = 1;
  while (v < x) {
    v <<= 1;
    ++r;
  }
  return r;
}

/// Shared argument validation: every collective reports mismatched buffers the
/// same way.
inline void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Signed iterator offset of block `index` in a buffer of uniform blocks of
/// `block` elements (collectives index spans by rank this way throughout).
inline std::ptrdiff_t block_offset(std::size_t block, int index) {
  return static_cast<std::ptrdiff_t>(block * static_cast<std::size_t>(index));
}

/// Exclusive prefix offsets of per-rank element counts (size p+1; offsets[p]
/// is the total). Rejects negative counts.
inline std::vector<std::size_t> prefix_offsets(std::span<const int> counts) {
  std::vector<std::size_t> off(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    require(counts[i] >= 0, "collective: counts must be non-negative");
    off[i + 1] = off[i] + static_cast<std::size_t>(counts[i]);
  }
  return off;
}

class TagAllocator;

/// A contiguous tag range leased to one in-flight collective call. `tag(step)`
/// yields per-step tags inside the range (wrapping within the block; wraps are
/// safe because matching is FIFO per (source, tag) and all ranks execute
/// collectives in the same program order). Releases the range on destruction.
class TagBlock {
 public:
  int tag(int step = 0) const;

  TagBlock(TagBlock&& other) noexcept
      : owner_(other.owner_), index_(other.index_), base_(other.base_) {
    other.owner_ = nullptr;
  }
  TagBlock(const TagBlock&) = delete;
  TagBlock& operator=(const TagBlock&) = delete;
  TagBlock& operator=(TagBlock&&) = delete;
  ~TagBlock();

 private:
  friend class TagAllocator;
  TagBlock(TagAllocator* owner, int index, int base)
      : owner_(owner), index_(index), base_(base) {}

  TagAllocator* owner_;
  int index_;
  int base_;
};

/// Centralized collective tag allocator (replaces the hand-maintained
/// `kAllreduceTag + 0xF00`-style offsets). Each collective call acquires a
/// block of kTagsPerBlock tags; blocks recycle cyclically over a window of
/// kWindowBlocks. Because every rank executes collectives in program order,
/// per-rank allocators stay in lockstep and the same call gets the same
/// range on every rank — the property the old per-collective constants
/// provided, now enforced in one place.
///
/// The no-overlap property (a recycled range must not still be held by an
/// in-flight collective on this rank) is tracked as counters checkable in
/// every build — the src/check fuzzing oracle asserts overlap_violations()
/// stays zero under adversarial schedules — and additionally asserted in
/// debug builds.
class TagAllocator {
 public:
  /// User point-to-point code must stay below this tag.
  static constexpr int kCollectiveTagBase = 1 << 20;
  static constexpr int kTagsPerBlock = 1 << 12;
  static constexpr int kWindowBlocks = 256;

  TagBlock acquire() {
    const int index = static_cast<int>(next_seq_ % kWindowBlocks);
    ++next_seq_;
    if (active_[static_cast<std::size_t>(index)]) {
      ++overlap_violations_;
      assert(false && "tag range still held by an in-flight collective");
    }
    active_[static_cast<std::size_t>(index)] = true;
    ++in_flight_;
    max_in_flight_ = std::max(max_in_flight_, in_flight_);
    return TagBlock(this, index, kCollectiveTagBase + index * kTagsPerBlock);
  }

  /// Total ranges leased over this allocator's lifetime.
  std::uint64_t acquired() const { return next_seq_; }
  /// Times a recycled range was re-leased while still held (must stay 0).
  std::uint64_t overlap_violations() const { return overlap_violations_; }
  /// Ranges currently held / high-water mark of simultaneously held ranges.
  int in_flight() const { return in_flight_; }
  int max_in_flight() const { return max_in_flight_; }

 private:
  friend class TagBlock;
  void release(int index) {
    active_[static_cast<std::size_t>(index)] = false;
    --in_flight_;
  }

  std::uint64_t next_seq_ = 0;
  std::uint64_t overlap_violations_ = 0;
  int in_flight_ = 0;
  int max_in_flight_ = 0;
  std::array<bool, kWindowBlocks> active_{};
};

inline int TagBlock::tag(int step) const {
  return base_ + (step % TagAllocator::kTagsPerBlock);
}

inline TagBlock::~TagBlock() {
  if (owner_ != nullptr) owner_->release(index_);
}

/// Ring rotation shared by allgather and allgatherv: `out` holds the p blocks
/// described by (offsets, counts) in elements, with this rank's own block
/// already in place. At step s every rank forwards the block originated by
/// (rank - s) mod p to its right neighbour and receives the block originated
/// by (rank - s - 1) mod p from its left; after p-1 steps all blocks have
/// visited every rank.
template <typename T>
void ring_allgather(sim::RankCtx& ctx, std::span<T> out,
                    std::span<const std::size_t> offsets,
                    std::span<const std::size_t> counts, const TagBlock& tags) {
  const int p = ctx.size();
  const int r = ctx.rank();
  if (p == 1) return;
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const auto send_block = static_cast<std::size_t>((r - s + p) % p);
    const auto recv_block = static_cast<std::size_t>((r - s - 1 + p) % p);
    ctx.send(right, tags.tag(s),
             std::span<const T>(out.data() + offsets[send_block], counts[send_block]));
    ctx.recv(left, tags.tag(s),
             std::span<T>(out.data() + offsets[recv_block], counts[recv_block]));
  }
}

}  // namespace isoee::smpi
