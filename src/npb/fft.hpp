// Radix-2 FFT primitives used by the FT benchmark (pure math, no simulator
// dependencies, so correctness is unit-testable against a naive DFT).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace isoee::npb {

/// True iff x is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Integer log2 for powers of two.
constexpr int ilog2(std::size_t x) {
  int r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

/// Table-driven in-place radix-2 Cooley-Tukey FFT of one power-of-two size:
/// a precomputed bit-reversal swap list and a cos/sin twiddle table per
/// butterfly stage. A butterfly works on a point's re and im as the two lanes
/// of one vector, rounding exactly as explicit scalar re/im arithmetic does.
/// Stages run in fused pairs, one load and one store per point for two
/// stages, with the same butterflies on the same operands as stage by stage.
///
/// Plans are immutable once built, and `get` hands out one process-wide plan
/// per size, so any number of threads may share them. `inverse` applies the
/// conjugate transform *without* the 1/N scale (callers scale once per
/// dimension, as NPB FT does).
class FftPlan {
 public:
  /// The shared plan for size `n`, built on first use. `n` must be a power of
  /// two.
  static const FftPlan& get(std::size_t n);

  std::size_t size() const { return n_; }

  /// Transforms `data` (exactly size() points) in place.
  void run(std::span<std::complex<double>> data, bool inverse) const;

  /// Transforms every column of a row-major block of size() rows by `cols`
  /// columns in place. Each butterfly is one contiguous pass over a pair of
  /// rows, so no column is gathered; every column comes out bit-identical to
  /// run() on that column alone.
  void run_columns(std::span<std::complex<double>> block, std::size_t cols, bool inverse) const;

 private:
  explicit FftPlan(std::size_t n);

  template <bool kInverse>
  void butterflies(double* data, std::size_t cols) const;

  std::size_t n_;
  std::vector<std::pair<std::size_t, std::size_t>> swaps_;  // bit-reversal pairs, i < j
  // Twiddles laid out as the butterflies read them: entry k of the stage
  // with half-length h (h = 1, 2, ..., n/2, k < h) is the four doubles at
  // 4*(h-1+k), (cos, cos, sin, -sin) of pi*k/h.
  std::vector<double> twiddles_;
};

/// In-place FFT of `data` through the shared plan of its size. `data.size()`
/// must be a power of two.
void fft1d(std::span<std::complex<double>> data, bool inverse);

/// Naive O(N^2) DFT reference (tests only). Same convention as fft1d.
std::vector<std::complex<double>> dft_reference(std::span<const std::complex<double>> data,
                                                bool inverse);

}  // namespace isoee::npb
