// Message-passing layer over the simulator: an MPI-flavoured communicator
// with point-to-point operations and collectives built *from* point-to-point,
// so collective costs emerge from the (possibly two-level) Hockney network
// model rather than being asserted. This is what makes the paper's
// Pairwise-exchange/Hockney all-to-all cost, (p-1)(t_s + X t_w), an emergent
// property we can validate against.
//
// The stack is layered (see docs/SMPI.md):
//   core.hpp         — GearScope, pow2 helpers, tag allocator, ring primitive
//   pt2pt.hpp        — typed point-to-point over RankCtx
//   registry.hpp     — algorithm catalogue, name lookup, (p, size) tuning
//   collectives/*    — one header per family (bcast/reduce, allreduce,
//                      allgather(v), alltoall(v), scatter/gather, scan)
//   comm.hpp (this)  — the Comm façade: validation, algorithm selection,
//                      gear scoping, tag-range allocation, composites
//
// Algorithms are selected per call: a fixed per-family enum in
// CollectiveConfig by default, or a (p, message-size) tuning table when one
// is supplied (CollectiveTuning::mpich_like() mirrors MPICH's tuned
// collectives). Defaults are MPICH-style: dissemination barrier, binomial
// bcast/reduce, recursive-doubling allreduce, ring allgather, pairwise
// alltoall.
//
// All operations are deterministic: matching is FIFO per (source, tag), every
// collective call leases its own tag range from the centralized TagAllocator,
// and all ranks execute collectives in program order.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "smpi/collectives/allgather.hpp"
#include "smpi/collectives/allreduce.hpp"
#include "smpi/collectives/alltoall.hpp"
#include "smpi/collectives/barrier.hpp"
#include "smpi/collectives/bcast_reduce.hpp"
#include "smpi/collectives/scan_reduce_scatter.hpp"
#include "smpi/collectives/scatter_gather.hpp"
#include "smpi/core.hpp"
#include "smpi/pt2pt.hpp"
#include "smpi/registry.hpp"

namespace isoee::smpi {

namespace detail {
/// Registry-side observability of every collective call (always on; two
/// relaxed atomic updates). The per-call trace spans are emitted separately
/// and only when a sink is installed.
inline void note_collective(std::size_t bytes) {
  static obs::Counter& calls = obs::metrics().counter("smpi.collective_calls");
  static obs::Histogram& sizes =
      obs::metrics().histogram("smpi.collective_bytes", obs::default_size_buckets());
  calls.inc();
  sizes.observe(static_cast<double>(bytes));
}

/// Named now() functor so Comm can spell the SpanScope type it returns.
struct CtxNow {
  sim::RankCtx* ctx;
  double operator()() const { return ctx->now(); }
};
}  // namespace detail

struct CollectiveConfig {
  AlltoallAlgo alltoall = AlltoallAlgo::kPairwise;
  AllreduceAlgo allreduce = AllreduceAlgo::kRecursiveDoubling;
  BcastAlgo bcast = BcastAlgo::kBinomial;
  AllgatherAlgo allgather = AllgatherAlgo::kRing;

  /// When set, algorithms are resolved per call from the (p, message-size)
  /// tuning tables instead of the fixed enums above.
  std::optional<CollectiveTuning> tuning;

  /// Communication-phase DVFS (Freeh/Ge-style controllers): when positive,
  /// every collective drops the core to this gear on entry and restores the
  /// previous gear on exit. Communication time is frequency-independent, so
  /// this trades (near) zero slowdown for lower busy-poll power — the
  /// opportunity the controllers in the paper's related work exploit.
  double comm_gear_ghz = 0.0;
};

/// Communicator over all ranks of a simulated job.
class Comm {
 public:
  explicit Comm(sim::RankCtx& ctx, CollectiveConfig config = CollectiveConfig())
      : ctx_(&ctx), config_(std::move(config)) {}

  /// Tag-allocator totals flow into the process metrics registry when the
  /// communicator retires (src/check still reads the live counters directly).
  ~Comm() {
    static obs::Counter& acquired = obs::metrics().counter("smpi.tags_acquired");
    static obs::Counter& overlaps =
        obs::metrics().counter("smpi.tag_overlap_violations");
    static obs::Gauge& max_in_flight = obs::metrics().gauge("smpi.tag_max_in_flight");
    acquired.inc(tags_.acquired());
    overlaps.inc(tags_.overlap_violations());
    max_in_flight.set_max(static_cast<double>(tags_.max_in_flight()));
  }
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return ctx_->rank(); }
  int size() const { return ctx_->size(); }
  sim::RankCtx& ctx() { return *ctx_; }
  const CollectiveConfig& config() const { return config_; }
  /// This rank's collective tag allocator; src/check reads its overlap
  /// counters after a run to verify tag-range recycling stayed safe.
  const TagAllocator& tag_allocator() const { return tags_; }

  // --- point to point -------------------------------------------------------
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    pt2pt::send(*ctx_, dst, tag, data);
  }
  template <typename T>
  void recv(int src, int tag, std::span<T> out) {
    pt2pt::recv(*ctx_, src, tag, out);
  }
  /// Simultaneous exchange with a partner (both sides call this).
  template <typename T>
  void sendrecv(int peer, int tag, std::span<const T> out, std::span<T> in) {
    pt2pt::sendrecv(*ctx_, peer, tag, out, in);
  }

  // --- collectives ----------------------------------------------------------
  void barrier() {
    auto span = collective_span("barrier", 0);
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::barrier(*ctx_, tags);
  }

  template <typename T>
  void bcast(std::span<T> buf, int root) {
    const BcastAlgo algo = bcast_algo(buf.size_bytes());
    auto span = collective_span("bcast", buf.size_bytes());
    span.arg_str("algo", algorithm_name(Family::kBcast, static_cast<int>(algo)));
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::bcast(*ctx_, algo, buf, root, tags);
  }

  /// Element-wise reduction to `root`; `op` combines (accumulator, incoming).
  template <typename T, typename Op>
  void reduce(std::span<const T> in, std::span<T> out, int root, Op op) {
    auto span = collective_span("reduce", in.size_bytes());
    span.arg_str("algo", "binomial");
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::reduce_binomial(*ctx_, in, out, root, op, tags);
  }

  template <typename T, typename Op>
  void allreduce(std::span<const T> in, std::span<T> out, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    require(in.size() == out.size(), "allreduce: size mismatch");
    const AllreduceAlgo algo = allreduce_algo(in.size_bytes());
    auto span = collective_span("allreduce", in.size_bytes());
    span.arg_str("algo", algorithm_name(Family::kAllreduce, static_cast<int>(algo)));
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    std::copy(in.begin(), in.end(), out.begin());
    if (size() == 1) return;

    switch (algo) {
      case AllreduceAlgo::kReduceBcast:
        reduce(in, out, /*root=*/0, op);
        bcast(out, /*root=*/0);
        return;
      case AllreduceAlgo::kRecursiveDoubling: {
        const TagBlock tags = tags_.acquire();
        collectives::allreduce_recursive_doubling(*ctx_, out, op, tags);
        return;
      }
    }
  }

  /// Convenience sum reductions.
  template <typename T>
  void reduce_sum(std::span<const T> in, std::span<T> out, int root) {
    reduce(in, out, root, [](T& a, const T& b) { a += b; });
  }
  template <typename T>
  void allreduce_sum(std::span<const T> in, std::span<T> out) {
    allreduce(in, out, [](T& a, const T& b) { a += b; });
  }
  /// Scalar allreduce-sum convenience.
  template <typename T>
  T allreduce_sum(T value) {
    T out{};
    allreduce_sum(std::span<const T>(&value, 1), std::span<T>(&out, 1));
    return out;
  }

  /// Each rank contributes in.size() elements; out.size() == p * in.size().
  template <typename T>
  void allgather(std::span<const T> in, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const AllgatherAlgo algo = allgather_algo(in.size_bytes());
    auto span = collective_span("allgather", in.size_bytes());
    span.arg_str("algo", algorithm_name(Family::kAllgather, static_cast<int>(algo)));
    switch (algo) {
      case AllgatherAlgo::kRing: {
        GearScope gear(*ctx_, config_.comm_gear_ghz);
        const TagBlock tags = tags_.acquire();
        collectives::allgather_ring(*ctx_, in, out, tags);
        return;
      }
      case AllgatherAlgo::kGatherBcast: {
        GearScope gear(*ctx_, config_.comm_gear_ghz);
        require(out.size() == in.size() * static_cast<std::size_t>(size()),
                "allgather: out must hold p blocks");
        gather(in, out, /*root=*/0);
        bcast(out, /*root=*/0);
        return;
      }
    }
  }

  /// Variable-block allgather: rank r contributes counts[r] elements;
  /// out.size() == sum(counts). Ring algorithm, p-1 steps.
  template <typename T>
  void allgatherv(std::span<const T> in, std::span<T> out, std::span<const int> counts) {
    auto span = collective_span("allgatherv", in.size_bytes());
    span.arg_str("algo", "ring");
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::allgatherv_ring(*ctx_, in, out, counts, tags);
  }

  /// Personalised exchange: in/out have p equal blocks of block elements each.
  template <typename T>
  void alltoall(std::span<const T> in, std::span<T> out, std::size_t block) {
    const AlltoallAlgo algo = alltoall_algo(block * sizeof(T));
    auto span = collective_span("alltoall", in.size_bytes());
    span.arg_str("algo", algorithm_name(Family::kAlltoall, static_cast<int>(algo)));
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::alltoall(*ctx_, algo, in, out, block, tags);
  }

  /// Variable-size personalised exchange (element counts per destination).
  template <typename T>
  void alltoallv(std::span<const T> in, std::span<const int> send_counts,
                 std::span<T> out, std::span<const int> recv_counts) {
    auto span = collective_span("alltoallv", in.size_bytes());
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::alltoallv(*ctx_, in, send_counts, out, recv_counts, tags);
  }

  /// Naive gather of equal blocks to root (out used at root only).
  template <typename T>
  void gather(std::span<const T> in, std::span<T> out, int root) {
    auto span = collective_span("gather", in.size_bytes());
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::gather_linear(*ctx_, in, out, root, tags);
  }

  /// Scatter of equal blocks from root (in used at root only).
  template <typename T>
  void scatter(std::span<const T> in, std::span<T> out, int root) {
    auto span = collective_span("scatter", out.size_bytes());
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::scatter_linear(*ctx_, in, out, root, tags);
  }

  /// Variable-count scatter from root.
  template <typename T>
  void scatterv(std::span<const T> in, std::span<const int> counts, std::span<T> out,
                int root) {
    auto span = collective_span("scatterv", out.size_bytes());
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::scatterv_linear(*ctx_, in, counts, out, root, tags);
  }

  /// Reduce-scatter of equal blocks: element-wise reduction of p blocks, with
  /// block r delivered to rank r. Implemented as reduce + scatter.
  template <typename T, typename Op>
  void reduce_scatter(std::span<const T> in, std::span<T> out, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    const std::size_t block = out.size();
    require(in.size() == block * static_cast<std::size_t>(p),
            "reduce_scatter: in must hold p blocks");
    auto span = collective_span("reduce_scatter", in.size_bytes());
    // Reduce to root 0, then scatter the blocks.
    std::vector<T> reduced(in.size());
    reduce(in, std::span<T>(reduced.data(), reduced.size()), /*root=*/0, op);
    scatter(std::span<const T>(reduced.data(), reduced.size()), out, /*root=*/0);
  }

  /// Inclusive prefix reduction (MPI_Scan): rank r receives the reduction of
  /// ranks 0..r. Linear pipeline.
  template <typename T, typename Op>
  void scan(std::span<const T> in, std::span<T> out, Op op) {
    auto span = collective_span("scan", in.size_bytes());
    GearScope gear(*ctx_, config_.comm_gear_ghz);
    const TagBlock tags = tags_.acquire();
    collectives::scan_linear(*ctx_, in, out, op, tags);
  }

 private:
  // RAII trace span for one collective call: cat "smpi", name = the family,
  // args {p, bytes[, algo]}. Declared first in each collective so it closes
  // last (covering gear restore), and composites' inner collectives nest
  // inside it by time containment. Also bumps the always-on call metrics.
  obs::SpanScope<detail::CtxNow> collective_span(const char* name, std::size_t bytes) {
    detail::note_collective(bytes);
    obs::SpanScope<detail::CtxNow> span(ctx_->trace_sink(), ctx_->rank(), "smpi", name,
                                        detail::CtxNow{ctx_});
    span.arg_int("p", size());
    span.arg_int("bytes", static_cast<long long>(bytes));
    return span;
  }

  // Per-call algorithm resolution: tuning table when present, fixed enum
  // otherwise. `bytes` is the per-rank payload of the call.
  AlltoallAlgo alltoall_algo(std::size_t bytes) const {
    if (config_.tuning) {
      return static_cast<AlltoallAlgo>(config_.tuning->alltoall.select(size(), bytes));
    }
    return config_.alltoall;
  }
  AllreduceAlgo allreduce_algo(std::size_t bytes) const {
    if (config_.tuning) {
      return static_cast<AllreduceAlgo>(config_.tuning->allreduce.select(size(), bytes));
    }
    return config_.allreduce;
  }
  AllgatherAlgo allgather_algo(std::size_t bytes) const {
    if (config_.tuning) {
      return static_cast<AllgatherAlgo>(config_.tuning->allgather.select(size(), bytes));
    }
    return config_.allgather;
  }
  BcastAlgo bcast_algo(std::size_t bytes) const {
    if (config_.tuning) {
      return static_cast<BcastAlgo>(config_.tuning->bcast.select(size(), bytes));
    }
    return config_.bcast;
  }

  sim::RankCtx* ctx_;
  CollectiveConfig config_;
  TagAllocator tags_;
};

}  // namespace isoee::smpi
