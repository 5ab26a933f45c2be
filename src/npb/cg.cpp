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

/// Local rows of A. Every row i has its off-diagonal entries in columns
/// (i + shift[k]) mod n for the same shifts, so only the values are stored,
/// k-major: vals[k * rows + lr] sits in row row0 + lr, column
/// (row0 + lr + shift[k]) mod n.
struct LocalMatrix {
  int row0 = 0, rows = 0, n = 0;
  std::vector<int> shift;     // one column shift per off-diagonal, in [1, n)
  std::vector<double> vals;   // shift.size() * rows values, k-major
  std::vector<double> diag;   // per-row diagonal
};

LocalMatrix build_local(const CgConfig& cfg, int rank, int p) {
  LocalMatrix m;
  m.n = cfg.n;
  m.row0 = cfg.n * rank / p;
  const int row1 = cfg.n * (rank + 1) / p;
  m.rows = row1 - m.row0;
  // Offset d gives the pair of columns i + d and i - d (mod n).
  for (int d : make_offsets(cfg.n, cfg.offsets)) {
    m.shift.push_back(d);
    m.shift.push_back(cfg.n - d);
  }
  const auto rows = static_cast<std::size_t>(m.rows);
  m.vals.resize(m.shift.size() * rows);
  m.diag.resize(rows);
  for (std::size_t lr = 0; lr < rows; ++lr) {
    const int i = m.row0 + static_cast<int>(lr);
    double row_abs = 0.0;
    for (std::size_t k = 0; k < m.shift.size(); ++k) {
      const double v = pair_value(cfg.seed, i, (i + m.shift[k]) % cfg.n);
      m.vals[k * rows + lr] = v;
      row_abs += std::abs(v);
    }
    // Strict diagonal dominance => symmetric positive definite.
    m.diag[lr] = row_abs + 1.0 + cfg.shift * 0.05;
  }
  return m;
}

/// y[j] += v[j] * x[j] for j < len: one shift's products over a run of rows
/// whose columns do not wrap, so both operand streams are contiguous.
void add_products(double* __restrict y, const double* __restrict v,
                  const double* __restrict x, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) y[j] += v[j] * x[j];
}

/// Rows per SpMV chunk: the chunk's output stays in L1 while every shift
/// passes over it.
constexpr std::size_t kSpmvChunkRows = 512;

/// out = A_local * xg, xg the whole gathered vector. Each row is
/// diag * x first, then the off-diagonal products in shift order: the same
/// additions in the same order as a row-at-a-time loop, so the same bits.
///
/// Aligned to 64 bytes so that where the product loops (packed SSE2 in a
/// Release build) sit in the instruction cache does not move with the size
/// of the code linked before this function: CG class W's host time has
/// moved by about 15% with such a shift (4-vCPU Xeon host, GCC 12, Release).
[[gnu::aligned(64)]] void spmv(const LocalMatrix& A, const std::vector<double>& xg,
                               std::vector<double>& out) {
  const auto rows = static_cast<std::size_t>(A.rows);
  const auto n = static_cast<std::size_t>(A.n);
  const auto row0 = static_cast<std::size_t>(A.row0);
  const double* x = xg.data();
  double* y = out.data();
  for (std::size_t c0 = 0; c0 < rows; c0 += kSpmvChunkRows) {
    const std::size_t c1 = std::min(rows, c0 + kSpmvChunkRows);
    for (std::size_t lr = c0; lr < c1; ++lr) y[lr] = A.diag[lr] * x[row0 + lr];
    for (std::size_t k = 0; k < A.shift.size(); ++k) {
      const double* v = A.vals.data() + k * rows;
      // Row lr reads column first + lr until that reaches n, then
      // first + lr - n: split the chunk at the wrap, so that no pointer
      // outside xg is formed.
      const std::size_t first = row0 + static_cast<std::size_t>(A.shift[k]);
      const std::size_t wrap = std::clamp(first < n ? n - first : 0, c0, c1);
      if (wrap > c0) add_products(y + c0, v + c0, x + first + c0, wrap - c0);
      if (c1 > wrap) add_products(y + wrap, v + wrap, x + (first + wrap - n), c1 - wrap);
    }
  }
}

/// The local part of a . b over n elements. Element i goes to partial sum
/// i % 4, and the sums combine as (s0 + s1) + (s2 + s3): four independent
/// add chains instead of one serial chain that waits on each add's latency.
double dot4(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  if (i < n) s0 += a[i] * b[i];
  if (i + 1 < n) s1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) s2 += a[i + 2] * b[i + 2];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace

std::vector<double> cg_dense_matrix(const CgConfig& config) {
  const LocalMatrix m = build_local(config, 0, 1);
  const auto n = static_cast<std::size_t>(config.n);
  std::vector<double> dense(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    dense[i * n + i] = m.diag[i];
    for (std::size_t k = 0; k < m.shift.size(); ++k) {
      const std::size_t j = (i + static_cast<std::size_t>(m.shift[k])) % n;
      dense[i * n + j] += m.vals[k * n + i];
    }
  }
  return dense;
}

CgResult cg_rank(sim::RankCtx& ctx, const CgConfig& config, powerpack::PhaseLog* phases) {
  if (config.n < 4 * ctx.size()) {
    throw std::invalid_argument("cg: n too small for rank count");
  }
  smpi::Comm comm(ctx, config.collectives);
  const int p = ctx.size();
  const int r = ctx.rank();

  LocalMatrix A = build_local(config, r, p);
  {
    powerpack::OptionalPhase phase(phases, ctx, "cg.makea");
    const auto nnz_local = static_cast<std::uint64_t>(A.rows) * (A.shift.size() + 1);
    ctx.compute_mem(20 * nnz_local, nnz_local / 4);  // generation pass
  }

  const auto nloc = static_cast<std::size_t>(A.rows);
  const auto n = static_cast<std::size_t>(config.n);
  const auto nnz_local = nloc * (A.shift.size() + 1);

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

  auto dot = [&](const std::vector<double>& a, const std::vector<double>& b) {
    const double local = dot4(a.data(), b.data(), nloc);
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
  result.nnz = static_cast<std::uint64_t>(config.n) * (A.shift.size() + 1);
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
      spmv(A, pg, q);
      charge_spmv();
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
    spmv(A, pg, q);
    charge_spmv();
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
