#include "npb/cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "npb/costs.hpp"
#include "util/rng.hpp"

namespace isoee::npb {

namespace {

/// Deterministic symmetric value for the unordered pair {i, j}: both endpoints
/// regenerate the same number, which is what makes A symmetric without any
/// coordination between ranks.
double pair_value(std::uint64_t seed, int i, int j) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(std::min(i, j)) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(std::max(i, j)) * 0xc2b2ae3d27d4eb4fULL;
  (void)isoee::util::splitmix64(h);
  const std::uint64_t bits = isoee::util::splitmix64(h);
  // Uniform in [-0.5, 0.5).
  return static_cast<double>(bits >> 11) * 0x1.0p-53 - 0.5;
}

/// Scattered symmetric offsets: far apart so the SpMV genuinely needs the
/// whole vector (no halo structure).
std::vector<int> make_offsets(int n, int count) {
  std::vector<int> offs;
  offs.reserve(static_cast<std::size_t>(count));
  // Irrational-ratio strides spread the offsets over [1, n).
  const double phi = 0.6180339887498949;
  double x = phi;
  for (int k = 0; k < count; ++k) {
    int d = 1 + static_cast<int>(x * (n - 2));
    // Keep offsets distinct.
    while (std::find(offs.begin(), offs.end(), d) != offs.end() ||
           std::find(offs.begin(), offs.end(), n - d) != offs.end() || d == 0) {
      d = (d + 1) % n;
      if (d == 0) d = 1;
    }
    offs.push_back(d);
    x += phi;
    x -= std::floor(x);
  }
  return offs;
}

/// Local rows of A in CSR-ish fixed-degree form.
struct LocalMatrix {
  int row0 = 0, rows = 0, n = 0;
  std::vector<int> cols;      // rows * degree column indices
  std::vector<double> vals;   // matching values
  std::vector<double> diag;   // per-row diagonal
  int degree = 0;             // off-diagonal entries per row
};

LocalMatrix build_local(const CgConfig& cfg, int rank, int p) {
  LocalMatrix m;
  m.n = cfg.n;
  m.row0 = cfg.n * rank / p;
  const int row1 = cfg.n * (rank + 1) / p;
  m.rows = row1 - m.row0;
  const auto offs = make_offsets(cfg.n, cfg.offsets);
  m.degree = 2 * cfg.offsets;
  m.cols.resize(static_cast<std::size_t>(m.rows) * static_cast<std::size_t>(m.degree));
  m.vals.resize(m.cols.size());
  m.diag.resize(static_cast<std::size_t>(m.rows));
  for (int lr = 0; lr < m.rows; ++lr) {
    const int i = m.row0 + lr;
    double row_abs = 0.0;
    std::size_t w = static_cast<std::size_t>(lr) * static_cast<std::size_t>(m.degree);
    for (int d : offs) {
      for (int sgn : {+1, -1}) {
        const int j = ((i + sgn * d) % cfg.n + cfg.n) % cfg.n;
        const double v = pair_value(cfg.seed, i, j);
        m.cols[w] = j;
        m.vals[w] = v;
        row_abs += std::abs(v);
        ++w;
      }
    }
    // Strict diagonal dominance => symmetric positive definite.
    m.diag[static_cast<std::size_t>(lr)] = row_abs + 1.0 + cfg.shift * 0.05;
  }
  return m;
}

}  // namespace

std::vector<double> cg_dense_matrix(const CgConfig& config) {
  const int n = config.n;
  LocalMatrix m = build_local(config, 0, 1);
  std::vector<double> dense(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    dense[static_cast<std::size_t>(i) * n + i] = m.diag[static_cast<std::size_t>(i)];
    for (int k = 0; k < m.degree; ++k) {
      const std::size_t w = static_cast<std::size_t>(i) * m.degree + k;
      dense[static_cast<std::size_t>(i) * n + m.cols[w]] += m.vals[w];
    }
  }
  return dense;
}

// Aligned to 64 bytes so that where the SpMV inner loop sits in the
// instruction cache does not move with the size of the code linked before
// this function. With the loop across a 64-byte line, CG class W ran about
// 15% slower on a 4-vCPU Xeon host (GCC 12, Release).
[[gnu::aligned(64)]] CgResult cg_rank(sim::RankCtx& ctx, const CgConfig& config,
                                      powerpack::PhaseLog* phases) {
  if (config.n < 4 * ctx.size()) {
    throw std::invalid_argument("cg: n too small for rank count");
  }
  smpi::Comm comm(ctx, config.collectives);
  const int p = ctx.size();
  const int r = ctx.rank();

  LocalMatrix A = build_local(config, r, p);
  {
    powerpack::OptionalPhase phase(phases, ctx, "cg.makea");
    const auto nnz_local = static_cast<std::uint64_t>(A.rows) *
                           static_cast<std::uint64_t>(A.degree + 1);
    ctx.compute_mem(20 * nnz_local, nnz_local / 4);  // generation pass
  }

  const auto nloc = static_cast<std::size_t>(A.rows);
  const auto n = static_cast<std::size_t>(config.n);
  const auto nnz_local = nloc * static_cast<std::size_t>(A.degree + 1);

  std::vector<double> x(nloc, 1.0);            // local block of the iteration vector
  std::vector<double> z(nloc), rvec(nloc), pvec(nloc), q(nloc);
  std::vector<double> pg(n);                   // allgathered direction vector

  // Row-block sizes per rank (blocks may differ by one when p does not
  // divide n, hence allgatherv).
  std::vector<int> counts(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    counts[static_cast<std::size_t>(i)] = config.n * (i + 1) / p - config.n * i / p;
  }

  // Charging helpers. Access counts model cache-line misses of streamed
  // data, billed at DRAM latency (see ft.cpp for the rationale).
  auto charge_spmv = [&] {
    ctx.compute_mem(costs::kCgInstrPerNonzero * nnz_local +
                        costs::kCgInstrPerVectorElem * nloc,
                    costs::kCgMemPerNonzero * nnz_local +
                        nloc / costs::kCgVectorElemsPerMemAccess);
  };
  auto charge_vec = [&](int passes) {
    ctx.compute_mem(costs::kCgInstrPerVectorElem * nloc * static_cast<unsigned>(passes),
                    static_cast<std::uint64_t>(passes) * nloc /
                        costs::kCgVectorElemsPerMemAccess);
  };
  auto charge_assemble = [&] {
    // Unpacking the gathered remote entries: the Delta-W_oc ~ n(p-1)/p per
    // rank term the paper's CG analysis surfaces.
    const std::uint64_t remote = n - nloc;
    ctx.compute_mem(costs::kCgAssembleInstrPerElem * remote,
                    remote / costs::kCgVectorElemsPerMemAccess);
  };

  auto spmv = [&](const std::vector<double>& vg, std::vector<double>& out) {
    for (std::size_t lr = 0; lr < nloc; ++lr) {
      double acc = A.diag[lr] * vg[static_cast<std::size_t>(A.row0) + lr];
      const std::size_t base = lr * static_cast<std::size_t>(A.degree);
      for (int k = 0; k < A.degree; ++k) {
        acc += A.vals[base + static_cast<std::size_t>(k)] *
               vg[static_cast<std::size_t>(A.cols[base + static_cast<std::size_t>(k)])];
      }
      out[lr] = acc;
    }
    charge_spmv();
  };

  auto dot = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double local = 0.0;
    for (std::size_t i = 0; i < nloc; ++i) local += a[i] * b[i];
    charge_vec(1);
    powerpack::OptionalPhase phase(phases, ctx, "cg.allreduce");
    return comm.allreduce_sum(local);
  };

  auto gather_direction = [&](const std::vector<double>& local, std::vector<double>& global) {
    powerpack::OptionalPhase phase(phases, ctx, "cg.allgather");
    comm.allgatherv(std::span<const double>(local), std::span<double>(global),
                    std::span<const int>(counts));
    charge_assemble();
  };

  CgResult result;
  result.nnz = static_cast<std::uint64_t>(config.n) * static_cast<std::uint64_t>(A.degree + 1);
  double zeta = 0.0;
  double rnorm = 0.0;

  for (int it = 0; it < config.outer; ++it) {
    powerpack::OptionalPhase phase(phases, ctx, "cg.outer");
    // CG solve A z = x, starting from z = 0, r = p = x.
    std::fill(z.begin(), z.end(), 0.0);
    rvec = x;
    pvec = x;
    charge_vec(2);
    double rho = dot(rvec, rvec);
    for (int cgit = 0; cgit < config.inner; ++cgit) {
      gather_direction(pvec, pg);
      spmv(pg, q);
      const double denom = dot(pvec, q);
      const double alpha = denom != 0.0 ? rho / denom : 0.0;
      for (std::size_t i = 0; i < nloc; ++i) {
        z[i] += alpha * pvec[i];
        rvec[i] -= alpha * q[i];
      }
      charge_vec(2);
      const double rho_new = dot(rvec, rvec);
      const double beta = rho != 0.0 ? rho_new / rho : 0.0;
      rho = rho_new;
      for (std::size_t i = 0; i < nloc; ++i) pvec[i] = rvec[i] + beta * pvec[i];
      charge_vec(1);
    }
    // Residual norm ||x - A z|| for reporting.
    gather_direction(z, pg);
    spmv(pg, q);
    double local_res = 0.0, local_xz = 0.0, local_zz = 0.0;
    for (std::size_t i = 0; i < nloc; ++i) {
      const double d = x[i] - q[i];
      local_res += d * d;
      local_xz += x[i] * z[i];
      local_zz += z[i] * z[i];
    }
    charge_vec(3);
    double sums[3] = {local_res, local_xz, local_zz};
    double red[3];
    {
      powerpack::OptionalPhase phase(phases, ctx, "cg.allreduce");
      comm.allreduce_sum(std::span<const double>(sums, 3), std::span<double>(red, 3));
    }
    rnorm = std::sqrt(red[0]);
    zeta = config.shift + 1.0 / red[1];
    // x = z / ||z||.
    const double znorm = std::sqrt(red[2]);
    for (std::size_t i = 0; i < nloc; ++i) x[i] = z[i] / znorm;
    charge_vec(1);
  }
  result.zeta = zeta;
  result.rnorm = rnorm;
  return result;
}

}  // namespace isoee::npb
