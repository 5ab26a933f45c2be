// Structural communication-volume models for the collective algorithms in
// src/smpi. The iso-energy-efficiency model needs the application vector's
// (M, B) — total messages and bytes — as functions of (n, p). For collectives
// these are structural properties of the algorithm, not fitted quantities, so
// they are computed here in closed form, mirroring the smpi implementations
// message for message (tests assert the match against simulator counters).
//
// Per-rank *time* for the step-synchronous algorithms follows the Hockney
// model; `hockney_alltoall_time` is the paper's Pairwise-exchange/Hockney
// estimate for MPI_Alltoall: (p-1)(t_s + X t_w).
#pragma once

#include <cmath>

namespace isoee::model {

/// Total messages and payload bytes a collective moves (summed over ranks).
struct CommVolume {
  double messages = 0.0;
  double bytes = 0.0;

  CommVolume& operator+=(const CommVolume& o) {
    messages += o.messages;
    bytes += o.bytes;
    return *this;
  }
  friend CommVolume operator+(CommVolume a, const CommVolume& b) { return a += b; }
  friend CommVolume operator*(double k, CommVolume v) {
    v.messages *= k;
    v.bytes *= k;
    return v;
  }
};

inline int ceil_log2(int p) {
  int r = 0;
  int x = 1;
  while (x < p) {
    x <<= 1;
    ++r;
  }
  return r;
}

inline int floor_pow2(int p) {
  int x = 1;
  while (x * 2 <= p) x *= 2;
  return x;
}

/// Dissemination barrier: ceil(log2 p) rounds, 1-byte token per rank per round.
inline CommVolume barrier_volume(int p) {
  if (p <= 1) return {};
  const double rounds = ceil_log2(p);
  return {static_cast<double>(p) * rounds, static_cast<double>(p) * rounds};
}

/// Binomial broadcast: p-1 edges, each carrying the full buffer.
inline CommVolume bcast_volume(int p, double bytes) {
  if (p <= 1) return {};
  return {static_cast<double>(p - 1), static_cast<double>(p - 1) * bytes};
}

/// Binomial reduce: same edge structure as bcast.
inline CommVolume reduce_volume(int p, double bytes) { return bcast_volume(p, bytes); }

/// Recursive-doubling allreduce with non-power-of-two fold (matches
/// smpi::Comm::allreduce): 2*rem fold messages + pof2*log2(pof2) exchange
/// messages, each carrying the full buffer.
inline CommVolume allreduce_volume(int p, double bytes) {
  if (p <= 1) return {};
  const int pof2 = floor_pow2(p);
  const int rem = p - pof2;
  const double msgs = 2.0 * rem + static_cast<double>(pof2) * ceil_log2(pof2);
  return {msgs, msgs * bytes};
}

/// Ring allgather: p-1 steps, every rank forwards one block per step.
inline CommVolume allgather_volume(int p, double block_bytes) {
  if (p <= 1) return {};
  const double msgs = static_cast<double>(p) * (p - 1);
  return {msgs, msgs * block_bytes};
}

/// Pairwise-exchange alltoall: p-1 steps, every rank sends one block per step.
inline CommVolume alltoall_volume(int p, double block_bytes) {
  if (p <= 1) return {};
  const double msgs = static_cast<double>(p) * (p - 1);
  return {msgs, msgs * block_bytes};
}

/// Bruck alltoall: every rank sends ceil(log2 p) bundles; in round k the
/// bundle carries the blocks whose rotated index has bit k set. For
/// power-of-two p that is exactly p/2 blocks per round.
inline CommVolume bruck_alltoall_volume(int p, double block_bytes) {
  if (p <= 1) return {};
  double msgs = 0.0, bytes = 0.0;
  for (int k = 1; k < p; k <<= 1) {
    int blocks = 0;
    for (int i = 0; i < p; ++i) {
      if (i & k) ++blocks;
    }
    msgs += p;
    bytes += static_cast<double>(p) * blocks * block_bytes;
  }
  return {msgs, bytes};
}

/// Alltoallv via ring-offset pairwise: p(p-1) messages, caller supplies the
/// total non-local payload.
inline CommVolume alltoallv_volume(int p, double total_nonlocal_bytes) {
  if (p <= 1) return {};
  return {static_cast<double>(p) * (p - 1), total_nonlocal_bytes};
}

/// Scatter from root: p-1 messages, each one block.
inline CommVolume scatter_volume(int p, double block_bytes) {
  return bcast_volume(p, block_bytes);  // same edge count, per-block payload
}

/// Reduce-scatter as reduce + scatter over p-block buffers.
inline CommVolume reduce_scatter_volume(int p, double block_bytes) {
  return reduce_volume(p, block_bytes * p) + scatter_volume(p, block_bytes);
}

/// Linear-pipeline scan: p-1 hops carrying the full buffer.
inline CommVolume scan_volume(int p, double bytes) {
  if (p <= 1) return {};
  return {static_cast<double>(p - 1), static_cast<double>(p - 1) * bytes};
}

/// Per-rank Pairwise-exchange/Hockney all-to-all time (the paper's FT model):
/// (p-1)(t_s + X t_w) where X is the per-destination block size in bytes.
inline double hockney_alltoall_time(int p, double block_bytes, double t_s, double t_w) {
  if (p <= 1) return 0.0;
  return static_cast<double>(p - 1) * (t_s + block_bytes * t_w);
}

// ---------------------------------------------------------------------------
// Two-level (hierarchical) extension. On a cluster of multi-core nodes the
// Hockney pair differs per link class: messages between ranks on the same
// node cross shared memory (t_s_i, t_w_i); messages between nodes cross the
// NIC (t_s_e, t_w_e). With block placement (rank r on node r / cores_per_node,
// matching sim::MachineSpec::node_of_rank) the intra/inter split of each
// collective is again a structural property of the algorithm, so the volumes
// below walk the same loops as the smpi implementations and classify every
// message. Tests assert exact equality against the simulator's locality
// counters. A flat network is the degenerate case intra == inter.
// ---------------------------------------------------------------------------

/// One Hockney link class: per-message startup and per-byte transfer time.
struct LinkParams {
  double t_s = 0.0;
  double t_w = 0.0;

  double time(double messages, double bytes) const { return messages * t_s + bytes * t_w; }
};

/// Block rank placement over p ranks with `cores_per_node` ranks per node.
struct Topology {
  int p = 1;
  int cores_per_node = 1;

  int node_of(int rank) const { return rank / cores_per_node; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
};

/// A CommVolume split by link class.
struct SplitVolume {
  CommVolume intra;
  CommVolume inter;

  CommVolume total() const { return intra + inter; }
  void add(bool same_node, double bytes) {
    CommVolume& v = same_node ? intra : inter;
    v.messages += 1.0;
    v.bytes += bytes;
  }
  SplitVolume& operator+=(const SplitVolume& o) {
    intra += o.intra;
    inter += o.inter;
    return *this;
  }
  friend SplitVolume operator+(SplitVolume a, const SplitVolume& b) { return a += b; }
};

inline bool is_pow2_p(int p) { return p > 0 && (p & (p - 1)) == 0; }

/// Pairwise-exchange alltoall split: step s pairs r with r^s (power-of-two p)
/// or with (r±s) mod p (ring offsets) — the same partner schedule as
/// smpi::collectives::alltoall_pairwise.
inline SplitVolume alltoall_split_volume(const Topology& t, double block_bytes) {
  SplitVolume v;
  for (int s = 1; s < t.p; ++s) {
    for (int r = 0; r < t.p; ++r) {
      const int dst = is_pow2_p(t.p) ? (r ^ s) : (r + s) % t.p;
      v.add(t.same_node(r, dst), block_bytes);
    }
  }
  return v;
}

/// Ring allgather split: p-1 steps, every rank forwards one block to its
/// right neighbour — only the p ring edges ever carry traffic.
inline SplitVolume allgather_split_volume(const Topology& t, double block_bytes) {
  SplitVolume v;
  if (t.p <= 1) return v;
  for (int r = 0; r < t.p; ++r) {
    const bool local = t.same_node(r, (r + 1) % t.p);
    for (int s = 1; s < t.p; ++s) v.add(local, block_bytes);
  }
  return v;
}

/// Recursive-doubling allreduce split, mirroring
/// smpi::collectives::allreduce_recursive_doubling: fold-in/out messages for
/// the non-power-of-two remainder plus log2(pof2) exchange rounds.
inline SplitVolume allreduce_split_volume(const Topology& t, double bytes) {
  SplitVolume v;
  if (t.p <= 1) return v;
  const int pof2 = floor_pow2(t.p);
  const int rem = t.p - pof2;
  for (int r = 0; r < 2 * rem; r += 2) {
    v.add(t.same_node(r, r + 1), bytes);  // fold-in: even -> odd
  }
  for (int r = 0; r < t.p; ++r) {
    const int newrank = r < 2 * rem ? (r % 2 == 0 ? -1 : r / 2) : r - rem;
    if (newrank < 0) continue;
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newpeer = newrank ^ mask;
      const int peer = newpeer < rem ? newpeer * 2 + 1 : newpeer + rem;
      v.add(t.same_node(r, peer), bytes);  // sendrecv: count the send
    }
  }
  for (int r = 0; r < 2 * rem; r += 2) {
    v.add(t.same_node(r + 1, r), bytes);  // fold-out: odd -> even
  }
  return v;
}

/// Binomial broadcast split from `root`: each non-root rank receives exactly
/// once, from the parent obtained by clearing its lowest set relative-rank bit.
inline SplitVolume bcast_split_volume(const Topology& t, double bytes, int root = 0) {
  SplitVolume v;
  for (int r = 0; r < t.p; ++r) {
    if (r == root) continue;
    const int vrank = (r - root + t.p) % t.p;
    const int mask = vrank & -vrank;
    const int src = (vrank - mask + root) % t.p;
    v.add(t.same_node(src, r), bytes);
  }
  return v;
}

/// Dissemination barrier split: round k sends one token from r to (r+k) mod p.
inline SplitVolume barrier_split_volume(const Topology& t) {
  SplitVolume v;
  for (int k = 1; k < t.p; k <<= 1) {
    for (int r = 0; r < t.p; ++r) v.add(t.same_node(r, (r + k) % t.p), 1.0);
  }
  return v;
}

/// Per-rank two-level Pairwise-exchange/Hockney alltoall estimate. Steps are
/// synchronous, so a step costs the Hockney pair of the slowest link it uses:
/// intra only when *every* partner pair of that step is intra-node (with
/// power-of-two p and cores-per-node, exactly the first cores_per_node - 1
/// XOR steps). Degenerates to hockney_alltoall_time when intra == inter.
inline double hierarchical_alltoall_time(const Topology& t, double block_bytes,
                                         const LinkParams& intra, const LinkParams& inter) {
  if (t.p <= 1) return 0.0;
  double time = 0.0;
  for (int s = 1; s < t.p; ++s) {
    bool all_intra = true;
    for (int r = 0; r < t.p && all_intra; ++r) {
      const int dst = is_pow2_p(t.p) ? (r ^ s) : (r + s) % t.p;
      all_intra = t.same_node(r, dst);
    }
    const LinkParams& link = all_intra ? intra : inter;
    time += link.t_s + block_bytes * link.t_w;
  }
  return time;
}

}  // namespace isoee::model
