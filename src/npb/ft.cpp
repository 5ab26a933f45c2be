#include "npb/ft.hpp"

#include <cmath>
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
void fft_rows(std::vector<Complex>& a, int n, bool inverse) {
  const FftPlan& plan = FftPlan::get(static_cast<std::size_t>(n));
  const auto len = static_cast<std::size_t>(n);
  for (std::size_t row = 0; row < a.size(); row += len) {
    plan.run(std::span<Complex>(a.data() + row, len), inverse);
  }
}

/// FFT along x on a z-slab (rows are contiguous).
void fft_x(FtState& st, std::vector<Complex>& a, bool inverse) {
  fft_rows(a, st.cfg->nx, inverse);
  st.charge_fft_stage(st.cfg->nx);
}

/// FFT along y on a z-slab: each z-plane is ny rows of nx, so the y pass is a
/// column transform of the plane.
void fft_y(FtState& st, std::vector<Complex>& a, bool inverse) {
  const int nx = st.cfg->nx, ny = st.cfg->ny;
  const FftPlan& plan = FftPlan::get(static_cast<std::size_t>(ny));
  const std::size_t plane = static_cast<std::size_t>(ny) * static_cast<std::size_t>(nx);
  for (int zl = 0; zl < st.nzl; ++zl) {
    plan.run_columns(std::span<Complex>(a.data() + static_cast<std::size_t>(zl) * plane, plane),
                     static_cast<std::size_t>(nx), inverse);
  }
  // Billed as a strided gather/scatter: charges model the kernel's access
  // pattern, not how this host loop happens to compute the pass.
  st.charge_fft_stage(ny, /*stride_penalty=*/2.0);
}

/// FFT along z on an x-slab (rows are contiguous).
void fft_z(FtState& st, std::vector<Complex>& b, bool inverse) {
  fft_rows(b, st.cfg->nz, inverse);
  st.charge_fft_stage(st.cfg->nz);
}

/// Transpose z-slabs -> x-slabs via all-to-all. a is (zl,y,x); returns (xl,y,z).
/// `a` is consumed: it is freed once packed, before the exchange allocates.
std::vector<Complex> transpose_fwd(FtState& st, std::vector<Complex> a) {
  const int nx = st.cfg->nx, ny = st.cfg->ny, nz = st.cfg->nz;
  const std::size_t block =
      static_cast<std::size_t>(st.nzl) * static_cast<std::size_t>(ny) *
      static_cast<std::size_t>(st.nxl);
  std::vector<Complex> sendbuf(block * static_cast<std::size_t>(st.p));
  // Pack: destination d receives our z-planes restricted to its x-range,
  // ordered (zl, y, xd).
  std::size_t w = 0;
  for (int d = 0; d < st.p; ++d) {
    for (int zl = 0; zl < st.nzl; ++zl) {
      for (int y = 0; y < ny; ++y) {
        const std::size_t base = (static_cast<std::size_t>(zl) * ny + y) * nx;
        for (int xd = d * st.nxl; xd < (d + 1) * st.nxl; ++xd) {
          sendbuf[w++] = a[base + static_cast<std::size_t>(xd)];
        }
      }
    }
  }
  st.charge_pack();
  a = std::vector<Complex>();

  std::vector<Complex> recvbuf(sendbuf.size());
  {
    powerpack::OptionalPhase ph(st.phases, *st.ctx, "ft.transpose");
    st.comm.alltoall(std::span<const Complex>(sendbuf), std::span<Complex>(recvbuf), block);
  }

  // Unpack into (xl, y, z): source s contributed z in its slab.
  std::vector<Complex> b(block * static_cast<std::size_t>(st.p));
  for (int s = 0; s < st.p; ++s) {
    std::size_t rd = block * static_cast<std::size_t>(s);
    for (int zl = 0; zl < st.nzl; ++zl) {
      const int z = s * st.nzl + zl;
      for (int y = 0; y < ny; ++y) {
        for (int xl = 0; xl < st.nxl; ++xl) {
          b[(static_cast<std::size_t>(xl) * ny + y) * nz + static_cast<std::size_t>(z)] =
              recvbuf[rd++];
        }
      }
    }
  }
  st.charge_pack();
  return b;
}

/// Transpose x-slabs -> z-slabs (inverse of transpose_fwd). b is (xl,y,z),
/// consumed like transpose_fwd's input.
std::vector<Complex> transpose_bwd(FtState& st, std::vector<Complex> b) {
  const int nx = st.cfg->nx, ny = st.cfg->ny, nz = st.cfg->nz;
  const std::size_t block =
      static_cast<std::size_t>(st.nzl) * static_cast<std::size_t>(ny) *
      static_cast<std::size_t>(st.nxl);
  std::vector<Complex> sendbuf(block * static_cast<std::size_t>(st.p));
  // Destination d owns z-planes [d*nzl, (d+1)*nzl); pack (zd, y, xl) for it.
  std::size_t w = 0;
  for (int d = 0; d < st.p; ++d) {
    for (int zd = d * st.nzl; zd < (d + 1) * st.nzl; ++zd) {
      for (int y = 0; y < ny; ++y) {
        for (int xl = 0; xl < st.nxl; ++xl) {
          sendbuf[w++] =
              b[(static_cast<std::size_t>(xl) * ny + y) * nz + static_cast<std::size_t>(zd)];
        }
      }
    }
  }
  st.charge_pack();
  b = std::vector<Complex>();

  std::vector<Complex> recvbuf(sendbuf.size());
  {
    powerpack::OptionalPhase ph(st.phases, *st.ctx, "ft.transpose");
    st.comm.alltoall(std::span<const Complex>(sendbuf), std::span<Complex>(recvbuf), block);
  }

  // Unpack into (zl, y, x): source s contributed x in its x-slab.
  std::vector<Complex> a(block * static_cast<std::size_t>(st.p));
  for (int s = 0; s < st.p; ++s) {
    std::size_t rd = block * static_cast<std::size_t>(s);
    for (int zl = 0; zl < st.nzl; ++zl) {
      for (int y = 0; y < ny; ++y) {
        const std::size_t base = (static_cast<std::size_t>(zl) * ny + y) * nx;
        for (int xs = s * st.nxl; xs < (s + 1) * st.nxl; ++xs) {
          a[base + static_cast<std::size_t>(xs)] = recvbuf[rd++];
        }
      }
    }
  }
  st.charge_pack();
  return a;
}

}  // namespace

FtResult ft_rank(sim::RankCtx& ctx, const FtConfig& config, powerpack::PhaseLog* phases) {
  FtState st(ctx, config);
  st.phases = phases;
  const int nx = config.nx, ny = config.ny, nz = config.nz;
  const double inv_n = 1.0 / static_cast<double>(config.total_points());

  // --- init: fill the z-slab from the global randlc stream -------------------
  std::vector<Complex> u(st.local_pts);
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
  std::vector<Complex> ut;  // frequency-domain field, x-slab layout
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.fft_forward");
    fft_x(st, u, /*inverse=*/false);
    fft_y(st, u, /*inverse=*/false);
    ut = transpose_fwd(st, std::move(u));
    fft_z(st, ut, /*inverse=*/false);
  }

  // --- evolve factors (x-slab layout) -----------------------------------------
  std::vector<double> factor(st.local_pts);
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.setup_evolve");
    const double c = -4.0 * config.evolve_alpha * std::numbers::pi * std::numbers::pi;
    std::size_t idx = 0;
    for (int xl = 0; xl < st.nxl; ++xl) {
      const int kx = signed_freq(st.r * st.nxl + xl, nx);
      for (int y = 0; y < ny; ++y) {
        const int ky = signed_freq(y, ny);
        for (int z = 0; z < nz; ++z) {
          const int kz = signed_freq(z, nz);
          const double k2 = static_cast<double>(kx) * kx + static_cast<double>(ky) * ky +
                            static_cast<double>(kz) * kz;
          factor[idx++] = std::exp(c * k2);
        }
      }
    }
    st.charge_pointwise(costs::kFtEvolveInstrPerPoint);
  }

  // --- iterations ---------------------------------------------------------------
  FtResult result;
  result.checksums.reserve(static_cast<std::size_t>(config.iters));
  std::vector<Complex> cur = std::move(ut);  // evolves by one factor step per iteration
  for (int it = 1; it <= config.iters; ++it) {
    // The inverse FFT works on a copy; evolving writes the copy in the same
    // pass.
    std::vector<Complex> tmp(cur.size());
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.evolve");
      for (std::size_t i = 0; i < cur.size(); ++i) tmp[i] = (cur[i] *= factor[i]);
      st.charge_pointwise(costs::kFtEvolveInstrPerPoint);
    }
    std::vector<Complex> w;
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.fft_inverse");
      fft_z(st, tmp, /*inverse=*/true);
      w = transpose_bwd(st, std::move(tmp));
      fft_y(st, w, /*inverse=*/true);
      fft_x(st, w, /*inverse=*/true);
      for (auto& v : w) v *= inv_n;  // one global 1/N scale for the inverse
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
                         static_cast<std::size_t>(q)];
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
