// FT — the NPB 3-D FFT benchmark.
//
// Solves a 3-D PDE spectrally: one forward 3-D FFT of a random initial field,
// then per iteration an evolve step in frequency space and an inverse 3-D FFT
// with a checksum of the result. The grid is slab-decomposed: x/y FFTs run on
// z-slabs, a pairwise-exchange all-to-all transposes to x-slabs for the z FFT
// (and back for the inverse) — the communication pattern the paper models
// with the Pairwise-exchange/Hockney formula.
//
// Verification: the per-iteration complex checksums are invariant (to
// floating-point roundoff) under the processor count.
#pragma once

#include <complex>
#include <vector>

#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace isoee::npb {

struct FtConfig {
  int nx = 64, ny = 64, nz = 64;  // grid; powers of two, nx and nz >= p
  int iters = 6;                  // evolve/inverse-FFT iterations
  double evolve_alpha = 1e-6;     // diffusion constant in the evolve factor
  double seed = 314159265.0;      // NPB FT seed
  smpi::CollectiveConfig collectives{};

  /// The field list (see model::MachineParams::fields), which the study
  /// fingerprint names: renaming a key invalidates every warm result cache.
  template <class Self, class Visit>
  static void fields(Self& c, Visit&& visit) {
    visit("nx", c.nx);
    visit("ny", c.ny);
    visit("nz", c.nz);
    visit("iters", c.iters);
    visit("alpha", c.evolve_alpha);
    visit("seed", c.seed);
    visit("coll", c.collectives);
  }

  std::uint64_t total_points() const {
    return static_cast<std::uint64_t>(nx) * static_cast<std::uint64_t>(ny) *
           static_cast<std::uint64_t>(nz);
  }
};

struct FtResult {
  std::vector<std::complex<double>> checksums;  // one per iteration
};

/// Runs FT on one rank. Requires nz % p == 0 and nx % p == 0.
/// All ranks return identical checksums.
FtResult ft_rank(sim::RankCtx& ctx, const FtConfig& config,
                 powerpack::PhaseLog* phases = nullptr);

}  // namespace isoee::npb
