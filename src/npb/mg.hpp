// MG — a multigrid kernel in the spirit of NPB MG.
//
// Solves the 3-D periodic Poisson problem A u = v with V-cycles: smoothing,
// residual, full-weighting restriction down a grid hierarchy, and trilinear
// prolongation back up. The grid is slab-decomposed over z; every stencil
// application exchanges one halo plane with each z-neighbour (periodic) —
// the nearest-neighbour communication pattern, complementing FT's all-to-all
// and CG's allgather in the model-validation suite.
//
// Verification: the residual norm decreases monotonically across V-cycles
// and, with a pinned `max_levels`, is invariant (to roundoff) under the
// processor count.
#pragma once

#include <vector>

#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace isoee::npb {

struct MgConfig {
  int nx = 64, ny = 64, nz = 64;  // powers of two
  int cycles = 4;                 // V-cycles
  int pre_smooth = 2;             // smoothing sweeps before coarsening
  int post_smooth = 2;            // smoothing sweeps after prolongation
  int max_levels = 0;             // 0 = coarsen as far as the slab allows.
                                  // The natural depth depends on p (thinner
                                  // slabs stop coarsening earlier); pin it to
                                  // make results bit-comparable across p.
  double seed = 314159265.0;
  smpi::CollectiveConfig collectives{};

  /// The field list (see model::MachineParams::fields), which the study
  /// fingerprint names: renaming a key invalidates every warm result cache.
  template <class Self, class Visit>
  static void fields(Self& c, Visit&& visit) {
    visit("nx", c.nx);
    visit("ny", c.ny);
    visit("nz", c.nz);
    visit("cycles", c.cycles);
    visit("pre", c.pre_smooth);
    visit("post", c.post_smooth);
    visit("maxlev", c.max_levels);
    visit("seed", c.seed);
    visit("coll", c.collectives);
  }

  std::uint64_t total_points() const {
    return static_cast<std::uint64_t>(nx) * static_cast<std::uint64_t>(ny) *
           static_cast<std::uint64_t>(nz);
  }
};

struct MgResult {
  std::vector<double> residual_norms;  // per cycle, after the cycle
  double initial_residual = 0.0;
};

/// Runs MG on one rank. Requires nz % p == 0 and nz / p >= 2.
/// All ranks return identical norms.
MgResult mg_rank(sim::RankCtx& ctx, const MgConfig& config,
                 powerpack::PhaseLog* phases = nullptr);

}  // namespace isoee::npb
