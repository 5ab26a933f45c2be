#include "npb/mg.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

#include "npb/costs.hpp"
#include "npb/fft.hpp"  // is_pow2
#include "util/rng.hpp"

namespace isoee::npb {

namespace {

/// One grid level, slab-decomposed over z with one halo plane per side.
/// Storage index: ((z + 1) * ny + y) * nx + x for z in [-1, nzl].
struct Level {
  int nx = 0, ny = 0, nzl = 0;  // local slab thickness (no halos)
  std::vector<double> u, v, r;  // solution, right-hand side, residual

  std::size_t idx(int z, int y, int x) const {
    return (static_cast<std::size_t>(z + 1) * static_cast<std::size_t>(ny) +
            static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(x);
  }
  std::size_t plane() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  }
  std::size_t interior() const { return plane() * static_cast<std::size_t>(nzl); }

  void allocate() {
    const std::size_t size = plane() * static_cast<std::size_t>(nzl + 2);
    u.assign(size, 0.0);
    v.assign(size, 0.0);
    r.assign(size, 0.0);
  }
};

struct MgState {
  sim::RankCtx* ctx;
  smpi::Comm comm;
  const MgConfig* cfg;
  int p, rank;
  std::vector<Level> levels;

  MgState(sim::RankCtx& c, const MgConfig& config)
      : ctx(&c), comm(c, config.collectives), cfg(&config), p(c.size()), rank(c.rank()) {}

  void charge_stencil(const Level& lv, std::uint64_t instr_per_point) {
    ctx->compute_mem(instr_per_point * lv.interior(), lv.interior() / 4);
  }

  /// Exchanges the two halo planes of `field` with the z-neighbours
  /// (periodic). Tags carry the level so repeated exchanges stay distinct.
  void exchange_halo(Level& lv, std::vector<double>& field, int level_id) {
    if (p == 1) {
      // Periodic wrap within the single rank.
      const std::size_t pl = lv.plane();
      std::copy(field.begin() + static_cast<std::ptrdiff_t>(lv.idx(lv.nzl - 1, 0, 0)),
                field.begin() + static_cast<std::ptrdiff_t>(lv.idx(lv.nzl - 1, 0, 0) + pl),
                field.begin());  // z = -1 halo
      std::copy(field.begin() + static_cast<std::ptrdiff_t>(lv.idx(0, 0, 0)),
                field.begin() + static_cast<std::ptrdiff_t>(lv.idx(0, 0, 0) + pl),
                field.begin() + static_cast<std::ptrdiff_t>(lv.idx(lv.nzl, 0, 0)));
      return;
    }
    const int up = (rank + 1) % p;
    const int down = (rank - 1 + p) % p;
    const std::size_t pl = lv.plane();
    const int tag_up = 100 + 4 * level_id;
    const int tag_down = 100 + 4 * level_id + 1;
    // Send my top plane up and bottom plane down; receive symmetric halos.
    ctx->send(up, tag_up, std::span<const double>(&field[lv.idx(lv.nzl - 1, 0, 0)], pl));
    ctx->send(down, tag_down, std::span<const double>(&field[lv.idx(0, 0, 0)], pl));
    ctx->recv(down, tag_up, std::span<double>(&field[lv.idx(-1, 0, 0)], pl));
    ctx->recv(up, tag_down, std::span<double>(&field[lv.idx(lv.nzl, 0, 0)], pl));
  }

  /// 7-point unitless Laplacian stencil S(f) = 6 f - sum(neighbours), with
  /// periodic x/y handled locally and z through the halos.
  double stencil_at(const Level& lv, const std::vector<double>& f, int z, int y,
                    int x) const {
    const int xm = x == 0 ? lv.nx - 1 : x - 1;
    const int xp = x == lv.nx - 1 ? 0 : x + 1;
    const int ym = y == 0 ? lv.ny - 1 : y - 1;
    const int yp = y == lv.ny - 1 ? 0 : y + 1;
    return 6.0 * f[lv.idx(z, y, x)] - f[lv.idx(z, y, xm)] - f[lv.idx(z, y, xp)] -
           f[lv.idx(z, ym, x)] - f[lv.idx(z, yp, x)] - f[lv.idx(z - 1, y, x)] -
           f[lv.idx(z + 1, y, x)];
  }

  /// Damped Jacobi sweep on S(u) = v.
  void smooth(Level& lv, int level_id, int sweeps) {
    constexpr double kOmega = 0.8;
    std::vector<double> next(lv.u.size());
    for (int s = 0; s < sweeps; ++s) {
      exchange_halo(lv, lv.u, level_id);
      for (int z = 0; z < lv.nzl; ++z) {
        for (int y = 0; y < lv.ny; ++y) {
          for (int x = 0; x < lv.nx; ++x) {
            const double res = lv.v[lv.idx(z, y, x)] - stencil_at(lv, lv.u, z, y, x);
            next[lv.idx(z, y, x)] = lv.u[lv.idx(z, y, x)] + kOmega * res / 6.0;
          }
        }
      }
      std::swap(lv.u, next);
      charge_stencil(lv, 14);
    }
  }

  /// r = v - S(u).
  void residual(Level& lv, int level_id) {
    exchange_halo(lv, lv.u, level_id);
    for (int z = 0; z < lv.nzl; ++z) {
      for (int y = 0; y < lv.ny; ++y) {
        for (int x = 0; x < lv.nx; ++x) {
          lv.r[lv.idx(z, y, x)] = lv.v[lv.idx(z, y, x)] - stencil_at(lv, lv.u, z, y, x);
        }
      }
    }
    charge_stencil(lv, 10);
  }

  /// Full-weighting-lite restriction: coarse v = 4 * average of the 2x2x2
  /// fine residual block (the factor 4 is the h^2 rescaling of the unitless
  /// stencil between levels).
  void restrict_to(const Level& fine, Level& coarse) {
    for (int z = 0; z < coarse.nzl; ++z) {
      for (int y = 0; y < coarse.ny; ++y) {
        for (int x = 0; x < coarse.nx; ++x) {
          double sum = 0.0;
          for (int dz = 0; dz < 2; ++dz) {
            for (int dy = 0; dy < 2; ++dy) {
              for (int dx = 0; dx < 2; ++dx) {
                sum += fine.r[fine.idx(2 * z + dz, 2 * y + dy, 2 * x + dx)];
              }
            }
          }
          coarse.v[coarse.idx(z, y, x)] = 4.0 * sum / 8.0;
        }
      }
      }
    std::fill(coarse.u.begin(), coarse.u.end(), 0.0);
    charge_stencil(coarse, 12);
  }

  /// Injection prolongation: add each coarse point to its 8 fine children.
  void prolongate_from(const Level& coarse, Level& fine) {
    for (int z = 0; z < coarse.nzl; ++z) {
      for (int y = 0; y < coarse.ny; ++y) {
        for (int x = 0; x < coarse.nx; ++x) {
          const double e = coarse.u[coarse.idx(z, y, x)];
          for (int dz = 0; dz < 2; ++dz) {
            for (int dy = 0; dy < 2; ++dy) {
              for (int dx = 0; dx < 2; ++dx) {
                fine.u[fine.idx(2 * z + dz, 2 * y + dy, 2 * x + dx)] += e;
              }
            }
          }
        }
      }
    }
    charge_stencil(coarse, 10);
  }

  /// Global L2 norm of the residual field.
  double residual_norm(Level& lv, int level_id) {
    residual(lv, level_id);
    double local = 0.0;
    for (int z = 0; z < lv.nzl; ++z) {
      for (int y = 0; y < lv.ny; ++y) {
        for (int x = 0; x < lv.nx; ++x) {
          const double r = lv.r[lv.idx(z, y, x)];
          local += r * r;
        }
      }
    }
    charge_stencil(lv, 2);
    return std::sqrt(comm.allreduce_sum(local));
  }

  /// Recursive V-cycle on level `l`.
  void vcycle(std::size_t l) {
    Level& lv = levels[l];
    smooth(lv, static_cast<int>(l), cfg->pre_smooth);
    if (l + 1 == levels.size()) {
      // Coarsest level: extra smoothing as the "direct" solve.
      smooth(lv, static_cast<int>(l), 12);
      return;
    }
    residual(lv, static_cast<int>(l));
    restrict_to(lv, levels[l + 1]);
    vcycle(l + 1);
    prolongate_from(levels[l + 1], lv);
    smooth(lv, static_cast<int>(l), cfg->post_smooth);
  }
};

}  // namespace

MgResult mg_rank(sim::RankCtx& ctx, const MgConfig& config, powerpack::PhaseLog* phases) {
  if (!is_pow2(static_cast<std::size_t>(config.nx)) ||
      !is_pow2(static_cast<std::size_t>(config.ny)) ||
      !is_pow2(static_cast<std::size_t>(config.nz))) {
    throw std::invalid_argument("mg: grid dims must be powers of two");
  }
  const int p = ctx.size();
  if (config.nz % p != 0 || config.nz / p < 2) {
    throw std::invalid_argument("mg: need nz divisible by p with nz/p >= 2");
  }

  MgState st(ctx, config);

  // Build the level hierarchy: halve all dims while the slab stays >= 2
  // planes thick and the grid stays >= 4 wide.
  {
    powerpack::OptionalPhase phase(phases, ctx, "mg.setup");
    int nx = config.nx, ny = config.ny, nzl = config.nz / p;
    while (true) {
      Level lv;
      lv.nx = nx;
      lv.ny = ny;
      lv.nzl = nzl;
      lv.allocate();
      st.levels.push_back(std::move(lv));
      if (config.max_levels > 0 &&
          static_cast<int>(st.levels.size()) >= config.max_levels) {
        break;
      }
      if (nx / 2 < 4 || ny / 2 < 4 || nzl / 2 < 2) break;
      nx /= 2;
      ny /= 2;
      nzl /= 2;
    }

    // Deterministic zero-mean RHS from the global NPB stream (slab slice).
    Level& fine = st.levels[0];
    util::NpbRandom rng(config.seed);
    const std::uint64_t first =
        static_cast<std::uint64_t>(ctx.rank()) * fine.interior();
    rng.skip(first);
    // The interior planes are contiguous (z, y, x order): draw them in one
    // fill() and map each deviate to [-1, 1) in place.
    const std::span<double> interior(&fine.v[fine.idx(0, 0, 0)], fine.interior());
    rng.fill(interior);
    double local_sum = 0.0;
    for (double& value : interior) {
      value = 2.0 * value - 1.0;
      local_sum += value;
    }
    // Remove the mean: the periodic Laplacian is singular on constants.
    const double mean = st.comm.allreduce_sum(local_sum) /
                        static_cast<double>(config.total_points());
    for (int z = 0; z < fine.nzl; ++z) {
      for (int y = 0; y < fine.ny; ++y) {
        for (int x = 0; x < fine.nx; ++x) fine.v[fine.idx(z, y, x)] -= mean;
      }
    }
    st.charge_stencil(fine, 12);
  }

  MgResult result;
  {
    powerpack::OptionalPhase phase(phases, ctx, "mg.norm");
    result.initial_residual = st.residual_norm(st.levels[0], 0);
  }
  result.residual_norms.reserve(static_cast<std::size_t>(config.cycles));
  for (int cycle = 0; cycle < config.cycles; ++cycle) {
    {
      powerpack::OptionalPhase phase(phases, ctx, "mg.vcycle");
      st.vcycle(0);
    }
    powerpack::OptionalPhase phase(phases, ctx, "mg.norm");
    result.residual_norms.push_back(st.residual_norm(st.levels[0], 0));
  }
  return result;
}

}  // namespace isoee::npb
