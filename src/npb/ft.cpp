#include "npb/ft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "npb/costs.hpp"
#include "npb/fft.hpp"
#include "util/rng.hpp"

namespace isoee::npb {

namespace {

using Complex = std::complex<double>;

/// Signed frequency of grid index i on an axis of length n.
int signed_freq(int i, int n) { return i <= n / 2 ? i : i - n; }

/// k^2 of one axis' signed frequency k.
std::uint64_t square(int k) { return static_cast<std::uint64_t>(std::int64_t{k} * k); }

/// Per-rank working state for the slab-decomposed FFT.
struct FtState {
  const FtConfig* cfg;
  sim::RankCtx* ctx;
  smpi::Comm comm;
  powerpack::PhaseLog* phases = nullptr;  // for the transpose comm markers
  int p, r;
  int nzl, nxl;             // local slab thicknesses (z-slab / x-slab)
  std::uint64_t local_pts;  // n / p
  std::uint64_t local_bytes;
  std::size_t block;        // points per all-to-all block: nzl * ny * nxl

  FtState(sim::RankCtx& c, const FtConfig& config)
      : cfg(&config), ctx(&c), comm(c, config.collectives), p(c.size()), r(c.rank()) {
    if (!is_pow2(static_cast<std::size_t>(config.nx)) ||
        !is_pow2(static_cast<std::size_t>(config.ny)) ||
        !is_pow2(static_cast<std::size_t>(config.nz))) {
      throw std::invalid_argument("ft: grid dims must be powers of two");
    }
    if (config.nz % p != 0 || config.nx % p != 0) {
      throw std::invalid_argument("ft: nz and nx must be divisible by p");
    }
    nzl = config.nz / p;
    nxl = config.nx / p;
    local_pts = config.total_points() / static_cast<std::uint64_t>(p);
    local_bytes = local_pts * sizeof(Complex);
    block = static_cast<std::size_t>(local_pts) / static_cast<std::size_t>(p);
  }

  // Annotation helpers: charge the simulator per whole stage. The charged
  // access counts are cache-line *miss* counts for streaming passes, so they
  // are billed at DRAM latency (working_set = 0), not at the hierarchy's
  // hit-rate curve — the arrays are streamed once with no reuse.
  void charge_fft_stage(int axis_len, double stride_penalty = 1.0) {
    const auto levels = static_cast<std::uint64_t>(ilog2(static_cast<std::size_t>(axis_len)));
    const std::uint64_t instr = costs::kFftInstrPerPointLevel * local_pts * levels;
    const auto mem = static_cast<std::uint64_t>(
        stride_penalty * static_cast<double>(local_pts) / costs::kFftPointsPerMemAccess);
    ctx->compute_mem(instr, mem);
  }
  void charge_pack() {
    ctx->compute_mem(costs::kFtPackInstrPerPoint * local_pts,
                     local_pts / costs::kFftPointsPerMemAccess);
  }
  void charge_pointwise(std::uint64_t instr_per_point) {
    ctx->compute_mem(instr_per_point * local_pts, local_pts / costs::kFftPointsPerMemAccess);
  }
};

/// z-slab layout: index (zl, y, x) -> ((zl*ny) + y)*nx + x.
/// x-slab layout: index (xl, y, z) -> ((xl*ny) + y)*nz + z.

/// FFT of every contiguous length-n row of `a` through the shared plan.
void fft_rows(std::span<Complex> a, int n, bool inverse) {
  const FftPlan& plan = FftPlan::get(static_cast<std::size_t>(n));
  const auto len = static_cast<std::size_t>(n);
  for (std::size_t row = 0; row < a.size(); row += len) {
    plan.run(a.subspan(row, len), inverse);
  }
}

/// FFT along x on a z-slab (rows are contiguous).
void fft_x(FtState& st, std::span<Complex> a, bool inverse) {
  fft_rows(a, st.cfg->nx, inverse);
  st.charge_fft_stage(st.cfg->nx);
}

/// FFT along y on a z-slab: each z-plane is ny rows of nx, so the y pass is a
/// column transform of the plane.
void fft_y(FtState& st, std::span<Complex> a, bool inverse) {
  const int nx = st.cfg->nx, ny = st.cfg->ny;
  const FftPlan& plan = FftPlan::get(static_cast<std::size_t>(ny));
  const std::size_t plane = static_cast<std::size_t>(ny) * static_cast<std::size_t>(nx);
  for (int zl = 0; zl < st.nzl; ++zl) {
    plan.run_columns(a.subspan(static_cast<std::size_t>(zl) * plane, plane),
                     static_cast<std::size_t>(nx), inverse);
  }
  // Billed as a strided gather/scatter: charges model the kernel's access
  // pattern, not how this host loop happens to compute the pass.
  st.charge_fft_stage(ny, /*stride_penalty=*/2.0);
}

/// FFT along z on an x-slab (rows are contiguous).
void fft_z(FtState& st, std::span<Complex> b, bool inverse) {
  fft_rows(b, st.cfg->nz, inverse);
  st.charge_fft_stage(st.cfg->nz);
}

/// Copies the rows x cols matrix at `src` (row stride src_ld) transposed into
/// `dst` (row stride dst_ld): dst[c*dst_ld + r] = src[r*src_ld + c]. Tiles of
/// kTile x kTile keep the strided side's cache lines live until they are full.
/// FT's strides are powers of two, so a tile's rows share L1 sets: 8 rows fit
/// an 8-way L1, where 16 rows evicted each other (FT 64^3 at p = 1 spent
/// about 1 ms more per run in the transposes).
void transpose_tiled(const Complex* src, std::size_t src_ld, Complex* dst, std::size_t dst_ld,
                     int rows, int cols) {
  constexpr int kTile = 8;
  for (int r0 = 0; r0 < rows; r0 += kTile) {
    const int r1 = std::min(rows, r0 + kTile);
    for (int c0 = 0; c0 < cols; c0 += kTile) {
      const int c1 = std::min(cols, c0 + kTile);
      for (int r = r0; r < r1; ++r) {
        const Complex* in = src + static_cast<std::size_t>(r) * src_ld;
        for (int c = c0; c < c1; ++c) {
          dst[static_cast<std::size_t>(c) * dst_ld + static_cast<std::size_t>(r)] = in[c];
        }
      }
    }
  }
}

/// Transpose z-slabs -> x-slabs via all-to-all: `data` is (zl,y,x) on entry
/// and (xl,y,z) on return. `scratch` (same size) stages the exchange: pack
/// data -> scratch, exchange scratch -> data, unpack data -> scratch, swap
/// the two views. Pack and unpack each write all of scratch, so its entry
/// contents are never read.
void transpose_fwd(FtState& st, std::span<Complex>& data, std::span<Complex>& scratch) {
  const int nx = st.cfg->nx, ny = st.cfg->ny, nz = st.cfg->nz;
  const auto nxl = static_cast<std::size_t>(st.nxl);
  // Pack: destination d receives our z-planes restricted to its x-range,
  // ordered (zl, y, xd).
  Complex* w = scratch.data();
  for (int d = 0; d < st.p; ++d) {
    for (int zl = 0; zl < st.nzl; ++zl) {
      for (int y = 0; y < ny; ++y) {
        const Complex* row = data.data() + (static_cast<std::size_t>(zl) * ny + y) * nx;
        w = std::copy_n(row + static_cast<std::size_t>(d) * nxl, nxl, w);
      }
    }
  }
  st.charge_pack();

  {
    powerpack::OptionalPhase ph(st.phases, *st.ctx, "ft.transpose");
    st.comm.alltoall(std::span<const Complex>(scratch), data, st.block);
  }

  // Unpack into (xl, y, z): source s contributed z in its slab, so each
  // (s, y) is an nzl x nxl transpose into x-rows ny*nz apart.
  const std::size_t plane = static_cast<std::size_t>(ny) * static_cast<std::size_t>(nz);
  for (int s = 0; s < st.p; ++s) {
    for (int y = 0; y < ny; ++y) {
      transpose_tiled(data.data() + st.block * static_cast<std::size_t>(s) +
                          static_cast<std::size_t>(y) * nxl,
                      static_cast<std::size_t>(ny) * nxl,
                      scratch.data() + static_cast<std::size_t>(y) * nz +
                          static_cast<std::size_t>(s) * static_cast<std::size_t>(st.nzl),
                      plane, st.nzl, st.nxl);
    }
  }
  st.charge_pack();
  std::swap(data, scratch);
}

/// Transpose x-slabs -> z-slabs (inverse of transpose_fwd): `data` is
/// (xl,y,z) on entry and (zl,y,x) on return, staged through `scratch` the
/// same way.
void transpose_bwd(FtState& st, std::span<Complex>& data, std::span<Complex>& scratch) {
  const int nx = st.cfg->nx, ny = st.cfg->ny, nz = st.cfg->nz;
  const auto nxl = static_cast<std::size_t>(st.nxl);
  // Destination d owns z-planes [d*nzl, (d+1)*nzl); pack (zd, y, xl) for it:
  // per (d, y), an nxl x nzl transpose out of x-rows ny*nz apart.
  const std::size_t plane = static_cast<std::size_t>(ny) * static_cast<std::size_t>(nz);
  for (int d = 0; d < st.p; ++d) {
    for (int y = 0; y < ny; ++y) {
      transpose_tiled(data.data() + static_cast<std::size_t>(y) * nz +
                          static_cast<std::size_t>(d) * static_cast<std::size_t>(st.nzl),
                      plane,
                      scratch.data() + st.block * static_cast<std::size_t>(d) +
                          static_cast<std::size_t>(y) * nxl,
                      static_cast<std::size_t>(ny) * nxl, st.nxl, st.nzl);
    }
  }
  st.charge_pack();

  {
    powerpack::OptionalPhase ph(st.phases, *st.ctx, "ft.transpose");
    st.comm.alltoall(std::span<const Complex>(scratch), data, st.block);
  }

  // Unpack into (zl, y, x): source s contributed x in its x-slab.
  const Complex* rd = data.data();
  for (int s = 0; s < st.p; ++s) {
    for (int zl = 0; zl < st.nzl; ++zl) {
      for (int y = 0; y < ny; ++y) {
        Complex* row = scratch.data() + (static_cast<std::size_t>(zl) * ny + y) * nx;
        std::copy_n(rd, nxl, row + static_cast<std::size_t>(s) * nxl);
        rd += nxl;
      }
    }
  }
  st.charge_pack();
  std::swap(data, scratch);
}

/// exp(c*k2) for every integer k2 in [0, k2_max]. Every rank of a run needs
/// the same table, and on thin grids (ny = 1, nx = nz = p) it is far larger
/// than one rank's slab, so ranks share it: it lives while a rank holds it.
std::shared_ptr<const std::vector<double>> evolve_table(double c, std::uint64_t k2_max) {
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (bits of c, k2_max)
  static std::mutex mu;
  static std::map<Key, std::weak_ptr<const std::vector<double>>> live;
  const std::lock_guard lock(mu);
  std::erase_if(live, [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<const std::vector<double>>& slot = live[{std::bit_cast<std::uint64_t>(c), k2_max}];
  if (auto table = slot.lock()) return table;
  auto table = std::make_shared<std::vector<double>>(k2_max + 1);
  for (std::uint64_t k2 = 0; k2 <= k2_max; ++k2) {
    (*table)[k2] = std::exp(c * static_cast<double>(k2));
  }
  slot = table;
  return table;
}

}  // namespace

FtResult ft_rank(sim::RankCtx& ctx, const FtConfig& config, powerpack::PhaseLog* phases) {
  FtState st(ctx, config);
  st.phases = phases;
  const int nx = config.nx, ny = config.ny, nz = config.nz;
  const double inv_n = 1.0 / static_cast<double>(config.total_points());

  // The whole run works in three local-size arrays, carved uninitialized
  // from this rank's slice of the run's scratch block: the field `u`, the
  // inverse-transform copy `w`, and the `scratch` each transpose stages
  // through. Each is written whole before it is first read.
  const std::size_t pts = st.local_pts;
  std::span<std::byte> slice = ctx.scratch(3 * sim::scratch_bytes<Complex>(pts));
  std::span<Complex> u = sim::carve_scratch<Complex>(slice, pts);  // written by rng.fill
  std::span<Complex> w = sim::carve_scratch<Complex>(slice, pts);  // by iteration 1's evolve
  std::span<Complex> scratch =
      sim::carve_scratch<Complex>(slice, pts);  // by transpose_fwd's pack

  // --- init: fill the z-slab from the global NPB stream ----------------------
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.init");
    util::NpbRandom rng(config.seed);
    const std::uint64_t first =
        static_cast<std::uint64_t>(st.r) * st.local_pts;  // global point index
    rng.skip(2 * first);
    // std::complex<double> is layout-compatible with double[2], so the
    // stream fills (re, im) pairs in place.
    rng.fill(std::span<double>(reinterpret_cast<double*>(u.data()), 2 * u.size()));
    st.charge_pointwise(10);
  }

  // --- forward 3-D FFT --------------------------------------------------------
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.fft_forward");
    fft_x(st, u, /*inverse=*/false);
    fft_y(st, u, /*inverse=*/false);
    transpose_fwd(st, u, scratch);  // u is now the x-slab frequency-domain field
    fft_z(st, u, /*inverse=*/false);
  }

  // --- evolve factors: exp(c*k2) depends only on the integer k2 ----------------
  std::shared_ptr<const std::vector<double>> factor;
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.setup_evolve");
    const double c = -4.0 * config.evolve_alpha * std::numbers::pi * std::numbers::pi;
    factor = evolve_table(c, square(nx / 2) + square(ny / 2) + square(nz / 2));
    st.charge_pointwise(costs::kFtEvolveInstrPerPoint);
  }

  // --- iterations ---------------------------------------------------------------
  FtResult result;
  result.checksums.reserve(static_cast<std::size_t>(config.iters));
  for (int it = 1; it <= config.iters; ++it) {
    // The inverse FFT works on a copy; evolving writes the copy in the same
    // pass.
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.evolve");
      const double* f = factor->data();
      std::size_t i = 0;
      for (int xl = 0; xl < st.nxl; ++xl) {
        const std::uint64_t kx2 = square(signed_freq(st.r * st.nxl + xl, nx));
        for (int y = 0; y < ny; ++y) {
          const std::uint64_t kxy2 = kx2 + square(signed_freq(y, ny));
          for (int z = 0; z < nz; ++z, ++i) {
            w[i] = (u[i] *= f[kxy2 + square(signed_freq(z, nz))]);
          }
        }
      }
      st.charge_pointwise(costs::kFtEvolveInstrPerPoint);
    }
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.fft_inverse");
      fft_z(st, w, /*inverse=*/true);
      transpose_bwd(st, w, scratch);
      fft_y(st, w, /*inverse=*/true);
      fft_x(st, w, /*inverse=*/true);
      // The global 1/N scale of the inverse is applied where w is read: at
      // the checksum's sampled points.
      st.charge_pointwise(2);
    }
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.checksum");
      // NPB-style strided checksum over 1024 global points.
      Complex local_sum(0.0, 0.0);
      const int z_lo = st.r * st.nzl, z_hi = (st.r + 1) * st.nzl;
      for (int j = 1; j <= 1024; ++j) {
        const int q = (5 * j) % nx;
        const int rr = (3 * j) % ny;
        const int s = j % nz;
        if (s >= z_lo && s < z_hi) {
          local_sum += w[(static_cast<std::size_t>(s - z_lo) * ny + rr) * nx +
                         static_cast<std::size_t>(q)] *
                       inv_n;
        }
      }
      ctx.compute(costs::kFtChecksumInstrPerPoint * 1024 / static_cast<unsigned>(st.p) + 16);
      double in[2] = {local_sum.real(), local_sum.imag()};
      double out[2];
      st.comm.allreduce_sum(std::span<const double>(in, 2), std::span<double>(out, 2));
      result.checksums.emplace_back(out[0], out[1]);
    }
  }
  return result;
}

}  // namespace isoee::npb
