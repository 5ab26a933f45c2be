#include "npb/fft.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace isoee::npb {

namespace {

// Points are addressed as interleaved (re, im) doubles: [complex.numbers]
// guarantees that layout and makes reading a std::complex<double> array
// through a double* well-defined. A butterfly holds each point in one
// two-lane vector (GCC/Clang vector extension; plain SSE2 on x86-64), so the
// re and im lanes run in one instruction each. Loads and stores go through
// memcpy: a point is only 8-byte aligned.
using Point = double __attribute__((vector_size(16)));

inline Point load(const double* p) {
  Point v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, Point v) { std::memcpy(p, &v, sizeof v); }

/// Butterfly with twiddle 1 (the first stage): a, b <- a + b, a - b.
inline void butterfly1(double* a, double* b) {
  const Point va = load(a), vb = load(b);
  store(b, va - vb);
  store(a, va + vb);
}

/// Butterfly with twiddle w = wr + i*wi: a, b <- a + w*b, a - w*b, given
/// w_re = (wr, wr) and w_im = (-wi, wi). Each lane rounds exactly as the
/// scalar form re = br*wr - bi*wi, im = br*wi + bi*wr does: negation is
/// exact, x + (-y) is x - y, and + commutes. The ISO build (no GNU
/// extensions) does not contract a*b + c into an FMA.
inline void butterfly(double* a, double* b, Point w_re, Point w_im) {
  const Point va = load(a), vb = load(b);
  const Point v = vb * w_re + __builtin_shufflevector(vb, vb, 1, 0) * w_im;
  store(b, va - v);
  store(a, va + v);
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }
  twiddles_.reserve(4 * n);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = std::numbers::pi * static_cast<double>(k) / static_cast<double>(h);
      const double c = std::cos(angle), s = std::sin(angle);
      twiddles_.insert(twiddles_.end(), {c, c, s, -s});
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
    const double* tw = twiddles_.data() + 4 * (h - 1);
    for (std::size_t i = 0; i < n_; i += 2 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        // The forward twiddle is cos - i*sin, the inverse cos + i*sin.
        const Point w_re = load(tw + 4 * k);
        const Point w_im = kInverse ? -load(tw + 4 * k + 2) : load(tw + 4 * k + 2);
        double* a = data + (i + k) * row;
        double* b = a + h * row;
        for (std::size_t c = 0; c < row; c += 2) butterfly(a + c, b + c, w_re, w_im);
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
