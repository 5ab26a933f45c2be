// CG — the NPB conjugate-gradient kernel.
//
// Estimates the largest eigenvalue of a sparse symmetric positive-definite
// matrix by inverse power iteration: each outer step approximately solves
// A z = x with a fixed number of CG iterations, updates the eigenvalue
// estimate zeta = shift + 1 / (x . z), and normalises x = z / ||z||.
//
// The matrix is a deterministic synthetic SPD operator: for each row i,
// off-diagonal entries at scattered symmetric offsets (i +/- d_k mod n) with
// pair-symmetric pseudo-random values, and a diagonal that strictly dominates
// the row sum (which guarantees SPD). Every rank regenerates its rows from
// the same seed, so the matrix is identical for every processor count.
//
// Storage: every row's off-diagonal columns are (i + s_k) mod n for the same
// 2 * offsets shifts s_k, so a rank keeps one shift per k and its values
// k-major (vals[k * rows + lr]), with no column indices. The SpMV runs k in
// the outer loop over row chunks that stay in L1 and splits each k where
// its columns wrap past n, so both operand streams are contiguous. Each row
// still adds diag * x first, then the products in k order: the same bits as
// a row-at-a-time loop.
//
// Local dot products sum element i into partial sum i % 4 and combine the
// four as (s0 + s1) + (s2 + s3), so they do not wait on one serial add
// chain. That order is part of the results' bits (tests/npb_test.cpp pins
// zeta and rnorm).
//
// Parallelisation: contiguous row blocks; the direction vector is allgathered
// before each SpMV (the scattered column offsets make halo exchange
// inapplicable) and dot products are allreduced — the communication pattern
// whose overhead the paper fits for CG.
#pragma once

#include <cstdint>
#include <vector>

#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace isoee::npb {

struct CgConfig {
  int n = 14000;      // matrix order
  int offsets = 6;    // symmetric off-diagonal offset pairs => nzr = 2*offsets+1
  int outer = 15;     // outer (power-iteration) steps
  int inner = 25;     // CG iterations per outer step
  double shift = 20.0;  // eigenvalue shift (NPB lambda shift)
  std::uint64_t seed = 0xC6C6ULL;
  smpi::CollectiveConfig collectives{};

  /// The field list (see model::MachineParams::fields), which the study
  /// fingerprint names: renaming a key invalidates every warm result cache.
  template <class Self, class Visit>
  static void fields(Self& c, Visit&& visit) {
    visit("n", c.n);
    visit("offsets", c.offsets);
    visit("outer", c.outer);
    visit("inner", c.inner);
    visit("shift", c.shift);
    visit("seed", c.seed);
    visit("coll", c.collectives);
  }
};

struct CgResult {
  double zeta = 0.0;    // final eigenvalue estimate
  double rnorm = 0.0;   // final CG residual norm
  std::uint64_t nnz = 0;  // total nonzeros of A (global)
};

/// Runs CG on one rank; all ranks return the same result (to roundoff).
CgResult cg_rank(sim::RankCtx& ctx, const CgConfig& config,
                 powerpack::PhaseLog* phases = nullptr);

/// Builds the full matrix densely (tests only; O(n^2) memory).
std::vector<double> cg_dense_matrix(const CgConfig& config);

}  // namespace isoee::npb
