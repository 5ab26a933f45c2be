// SWEEP — a wavefront-pipeline kernel in the spirit of NPB LU / Sweep3D.
//
// A 2-D grid is swept in dependence order: cell (i, j) needs (i-1, j) and
// (i, j-1). Rows are block-distributed; each rank processes its rows in
// column tiles, receiving the boundary row of each tile from its upstream
// neighbour and forwarding its own bottom row downstream — a software
// pipeline with (p - 1) fill/drain bubbles per sweep.
//
// This is the one kernel whose execution is *inherently imbalanced in time*
// (ranks idle during pipeline fill), deliberately stressing the model's
// balanced-execution assumption; see the npb tests and EXPERIMENTS.md.
//
// Verification: the boundary checksum is invariant under p and tile width.
#pragma once

#include <cstdint>

#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace isoee::npb {

struct SweepConfig {
  int nx = 512;      // columns
  int ny = 512;      // rows (distributed)
  int sweeps = 4;    // full wavefront passes
  int tile_w = 64;   // pipeline tile width (columns per message)
  double seed = 314159265.0;
  smpi::CollectiveConfig collectives{};

  /// The field list (see model::MachineParams::fields), which the study
  /// fingerprint names: renaming a key invalidates every warm result cache.
  template <class Self, class Visit>
  static void fields(Self& c, Visit&& visit) {
    visit("nx", c.nx);
    visit("ny", c.ny);
    visit("sweeps", c.sweeps);
    visit("tile", c.tile_w);
    visit("seed", c.seed);
    visit("coll", c.collectives);
  }

  std::uint64_t total_cells() const {
    return static_cast<std::uint64_t>(nx) * static_cast<std::uint64_t>(ny);
  }
};

struct SweepResult {
  double checksum = 0.0;  // sum of the final bottom boundary row (global)
};

/// Runs SWEEP on one rank. Requires ny >= p and nx % tile_w == 0.
SweepResult sweep_rank(sim::RankCtx& ctx, const SweepConfig& config,
                       powerpack::PhaseLog* phases = nullptr);

}  // namespace isoee::npb
