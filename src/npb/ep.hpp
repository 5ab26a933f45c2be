// EP — the NPB "embarrassingly parallel" kernel.
//
// Generates `trials` pairs of uniform deviates from one global NPB stream
// (util::NpbRandom; each rank skips to its slice), applies the Marsaglia
// polar method to produce Gaussian deviates, accumulates their sums and the
// counts of the ten square annuli max(|X|,|Y|) falls into, and allreduces the
// statistics.
// Results are bit-identical for every processor count, which is the
// verification invariant.
#pragma once

#include <array>
#include <cstdint>

#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace isoee::npb {

struct EpConfig {
  std::uint64_t trials = 1 << 20;  // total Marsaglia trials across all ranks
  double seed = 271828183.0;       // NPB EP seed
  smpi::CollectiveConfig collectives{};

  /// The field list (see model::MachineParams::fields), which the study
  /// fingerprint names: renaming a key invalidates every warm result cache.
  template <class Self, class Visit>
  static void fields(Self& c, Visit&& visit) {
    visit("trials", c.trials);
    visit("seed", c.seed);
    visit("coll", c.collectives);
  }
};

struct EpResult {
  double sx = 0.0;                      // sum of X deviates
  double sy = 0.0;                      // sum of Y deviates
  std::uint64_t pairs = 0;              // accepted pairs
  std::array<std::uint64_t, 10> counts{};  // annulus histogram
};

/// Runs EP on one rank; every rank returns the same (allreduced) result.
/// `phases` optionally records generation/communication phase markers.
EpResult ep_rank(sim::RankCtx& ctx, const EpConfig& config,
                 powerpack::PhaseLog* phases = nullptr);

}  // namespace isoee::npb
