// IS — the NPB integer-sort kernel (parallel bucket sort).
//
// Keys come from one global deterministic stream; each rank generates its
// slice, histograms keys into p value-range buckets, allreduces the bucket
// sizes, redistributes keys with alltoallv, and counting-sorts its bucket.
// Verification: local buckets sorted, bucket boundaries ordered across
// neighbouring ranks, and the global key count conserved.
#pragma once

#include <cstdint>

#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace isoee::npb {

struct IsConfig {
  std::uint64_t n_keys = 1 << 20;  // total keys across ranks
  int key_bits = 16;               // keys uniform in [0, 2^key_bits)
  double seed = 314159265.0;
  smpi::CollectiveConfig collectives{};

  /// The field list (see model::MachineParams::fields), which the study
  /// fingerprint names: renaming a key invalidates every warm result cache.
  template <class Self, class Visit>
  static void fields(Self& c, Visit&& visit) {
    visit("nkeys", c.n_keys);
    visit("bits", c.key_bits);
    visit("seed", c.seed);
    visit("coll", c.collectives);
  }
};

struct IsResult {
  bool sorted = true;          // all verification checks passed
  std::uint64_t total_keys = 0;  // global key count after redistribution
  std::uint64_t local_keys = 0;  // this rank's bucket size
};

/// Runs IS on one rank.
IsResult is_rank(sim::RankCtx& ctx, const IsConfig& config,
                 powerpack::PhaseLog* phases = nullptr);

}  // namespace isoee::npb
