#include "npb/sweep.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "npb/costs.hpp"
#include "util/rng.hpp"

namespace isoee::npb {

SweepResult sweep_rank(sim::RankCtx& ctx, const SweepConfig& config,
                       powerpack::PhaseLog* phases) {
  const int p = ctx.size();
  const int r = ctx.rank();
  if (config.ny < p) throw std::invalid_argument("sweep: ny must be >= p");
  if (config.tile_w <= 0 || config.nx % config.tile_w != 0) {
    throw std::invalid_argument("sweep: nx must be a multiple of tile_w");
  }
  smpi::Comm comm(ctx, config.collectives);

  const int row0 = config.ny * r / p;
  const int row1 = config.ny * (r + 1) / p;
  const int rows = row1 - row0;
  const int ntiles = config.nx / config.tile_w;
  const auto nx = static_cast<std::size_t>(config.nx);

  // Local field with one ghost row on top (the upstream boundary).
  std::vector<double> u(static_cast<std::size_t>(rows + 1) * nx, 0.0);
  auto at = [&](int i, int j) -> double& {
    return u[static_cast<std::size_t>(i + 1) * nx + static_cast<std::size_t>(j)];
  };

  // Deterministic per-cell source term from the global stream (rank slice).
  {
    powerpack::OptionalPhase phase(phases, ctx, "sweep.init");
    util::NpbRandom rng(config.seed);
    rng.skip(static_cast<std::uint64_t>(row0) * nx);
    // The local rows follow the ghost row contiguously: one fill() draws them.
    rng.fill(std::span<double>(u).subspan(nx));
    ctx.compute_mem(8ull * static_cast<std::uint64_t>(rows) * nx,
                    static_cast<std::uint64_t>(rows) * nx / 8);
  }

  std::vector<double> boundary(static_cast<std::size_t>(config.tile_w));
  const auto cells_per_tile =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(config.tile_w);

  for (int sweep = 0; sweep < config.sweeps; ++sweep) {
    powerpack::OptionalPhase phase(phases, ctx, "sweep.wavefront");
    for (int t = 0; t < ntiles; ++t) {
      const int j0 = t * config.tile_w;
      // Receive the upstream boundary row for this tile (zero for rank 0).
      if (r > 0) {
        comm.recv(r - 1, 300 + t, std::span<double>(boundary));
        for (int j = 0; j < config.tile_w; ++j) at(-1, j0 + j) = boundary[static_cast<std::size_t>(j)];
      }
      // Wavefront recurrence over the tile (first column uses only the row
      // dependence, mirroring an inflow boundary).
      for (int i = 0; i < rows; ++i) {
        for (int j = j0; j < j0 + config.tile_w; ++j) {
          const double west = j > 0 ? at(i, j - 1) : 0.25;
          const double north = at(i - 1, j);
          at(i, j) = 0.35 * north + 0.35 * west + 0.3 * at(i, j);
        }
      }
      ctx.compute_mem(costs::kCgInstrPerNonzero * cells_per_tile, cells_per_tile / 8);
      // Forward the bottom row of the tile downstream.
      if (r + 1 < p) {
        for (int j = 0; j < config.tile_w; ++j) {
          boundary[static_cast<std::size_t>(j)] = at(rows - 1, j0 + j);
        }
        comm.send(r + 1, 300 + t, std::span<const double>(boundary));
      }
    }
  }

  SweepResult result;
  {
    powerpack::OptionalPhase phase(phases, ctx, "sweep.checksum");
    // Sum of the globally-last row (owned by the last rank), allreduced so
    // every rank returns the same p-invariant value.
    double local = 0.0;
    if (r == p - 1) {
      for (int j = 0; j < config.nx; ++j) local += at(rows - 1, j);
    }
    ctx.compute(2ull * nx);
    result.checksum = comm.allreduce_sum(local);
  }
  return result;
}

}  // namespace isoee::npb
