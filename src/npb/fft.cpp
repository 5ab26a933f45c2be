#include "npb/fft.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace isoee::npb {

namespace {

// Points are addressed as interleaved (re, im) doubles: [complex.numbers]
// guarantees that layout and makes reading a std::complex<double> array
// through a double* well-defined.

/// Butterfly with twiddle 1 (the first stage): a, b <- a + b, a - b.
inline void butterfly1(double* a, double* b) {
  const double vr = b[0], vi = b[1];
  b[0] = a[0] - vr;
  b[1] = a[1] - vi;
  a[0] += vr;
  a[1] += vi;
}

/// Butterfly with twiddle w = wr + i*wi: a, b <- a + w*b, a - w*b.
inline void butterfly(double* a, double* b, double wr, double wi) {
  const double vr = b[0] * wr - b[1] * wi;
  const double vi = b[0] * wi + b[1] * wr;
  b[0] = a[0] - vr;
  b[1] = a[1] - vi;
  a[0] += vr;
  a[1] += vi;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }
  cos_.reserve(n);
  sin_.reserve(n);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = std::numbers::pi * static_cast<double>(k) / static_cast<double>(h);
      cos_.push_back(std::cos(angle));
      sin_.push_back(std::sin(angle));
    }
  }
}

const FftPlan& FftPlan::get(std::size_t n) {
  if (!is_pow2(n)) throw std::invalid_argument("fft1d: size must be a power of two");
  constexpr std::size_t kSizes = std::numeric_limits<std::size_t>::digits;
  static std::array<std::once_flag, kSizes> built;
  static std::array<std::unique_ptr<const FftPlan>, kSizes> plans;
  const auto lg = static_cast<std::size_t>(ilog2(n));
  std::call_once(built[lg], [&] { plans[lg].reset(new FftPlan(n)); });
  return *plans[lg];
}

template <bool kInverse>
void FftPlan::butterflies(double* data, std::size_t cols) const {
  const std::size_t row = 2 * cols;  // doubles per row
  for (std::size_t i = 0; i < n_; i += 2) {
    double* a = data + i * row;
    double* b = a + row;
    for (std::size_t c = 0; c < row; c += 2) butterfly1(a + c, b + c);
  }
  for (std::size_t h = 2; h < n_; h <<= 1) {
    const double* wr = cos_.data() + (h - 1);
    const double* ws = sin_.data() + (h - 1);
    for (std::size_t i = 0; i < n_; i += 2 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        const double twr = wr[k];
        const double twi = kInverse ? ws[k] : -ws[k];
        double* a = data + (i + k) * row;
        double* b = a + h * row;
        for (std::size_t c = 0; c < row; c += 2) butterfly(a + c, b + c, twr, twi);
      }
    }
  }
}

void FftPlan::run(std::span<std::complex<double>> data, bool inverse) const {
  if (data.size() != n_) throw std::invalid_argument("FftPlan::run: size mismatch");
  if (n_ <= 1) return;
  for (const auto& [i, j] : swaps_) std::swap(data[i], data[j]);
  auto* d = reinterpret_cast<double*>(data.data());
  if (inverse) {
    butterflies<true>(d, 1);
  } else {
    butterflies<false>(d, 1);
  }
}

void FftPlan::run_columns(std::span<std::complex<double>> block, std::size_t cols,
                          bool inverse) const {
  if (block.size() != n_ * cols) throw std::invalid_argument("FftPlan::run_columns: size mismatch");
  if (n_ <= 1 || cols == 0) return;
  for (const auto& [i, j] : swaps_) {
    std::swap_ranges(block.begin() + static_cast<std::ptrdiff_t>(i * cols),
                     block.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols),
                     block.begin() + static_cast<std::ptrdiff_t>(j * cols));
  }
  auto* d = reinterpret_cast<double*>(block.data());
  if (inverse) {
    butterflies<true>(d, cols);
  } else {
    butterflies<false>(d, cols);
  }
}

void fft1d(std::span<std::complex<double>> data, bool inverse) {
  if (data.size() <= 1) return;
  FftPlan::get(data.size()).run(data, inverse);
}

std::vector<std::complex<double>> dft_reference(std::span<const std::complex<double>> data,
                                                bool inverse) {
  const std::size_t n = data.size();
  std::vector<std::complex<double>> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> sum(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      // Reduce k*j mod n first: the angle then stays below 2*pi, where cos
      // and sin of a rounded argument are accurate to a few ulps.
      const double angle = sign * 2.0 * std::numbers::pi * static_cast<double>((k * j) % n) /
                           static_cast<double>(n);
      sum += data[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = sum;
  }
  return out;
}

}  // namespace isoee::npb
