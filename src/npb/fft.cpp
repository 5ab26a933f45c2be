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

/// One twiddle w = wr + i*wi as the butterflies use it: re = (wr, wr) and
/// im = (-wi, wi).
struct Twiddle {
  Point re, im;
};

/// Butterfly with twiddle 1 (the first stage): a, b <- a + b, a - b.
inline void butterfly1(Point& a, Point& b) {
  const Point t = a;
  a = t + b;
  b = t - b;
}

/// Butterfly with twiddle w: a, b <- a + w*b, a - w*b. Each lane rounds
/// exactly as the scalar form re = br*wr - bi*wi, im = br*wi + bi*wr does:
/// negation is exact, x + (-y) is x - y, and + commutes. The ISO build (no
/// GNU extensions) does not contract a*b + c into an FMA.
inline void butterfly(Point& a, Point& b, const Twiddle& w) {
  const Point v = b * w.re + __builtin_shufflevector(b, b, 1, 0) * w.im;
  b = a - v;
  a = a + v;
}

/// Runs `fused(p0, p1, p2, p3)` on the points q[c], q[gap + c], q[2*gap + c]
/// and q[3*gap + c] for every c < row (in doubles), loading and storing each
/// point once.
template <class Fused>
inline void for_each_group(double* q, std::size_t gap, std::size_t row, Fused fused) {
  for (std::size_t c = 0; c < row; c += 2) {
    Point p0 = load(q + c), p1 = load(q + gap + c), p2 = load(q + 2 * gap + c),
          p3 = load(q + 3 * gap + c);
    fused(p0, p1, p2, p3);
    store(q + c, p0);
    store(q + gap + c, p1);
    store(q + 2 * gap + c, p2);
    store(q + 3 * gap + c, p3);
  }
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
  // Entry k of the stage with half-length h. The forward twiddle is
  // cos - i*sin, the inverse cos + i*sin.
  const auto twiddle = [this](std::size_t h, std::size_t k) {
    const double* t = twiddles_.data() + 4 * (h - 1 + k);
    return Twiddle{load(t), kInverse ? -load(t + 2) : load(t + 2)};
  };
  // Stages h and 2h run as one pass: the points {j, j+h, j+2h, j+3h} (j in
  // the first h of a 4h block) are closed under both stages' butterflies,
  // so each is loaded and stored once while the same four butterflies run
  // on the same operands, in stage order. The first pair is stages 1 and 2,
  // where stage 1's twiddle is 1.
  std::size_t h = 1;
  if (n_ >= 4) {
    const Twiddle w0 = twiddle(2, 0), w1 = twiddle(2, 1);
    for (std::size_t j = 0; j < n_; j += 4) {
      for_each_group(data + j * row, row, row, [&](Point& p0, Point& p1, Point& p2, Point& p3) {
        butterfly1(p0, p1);
        butterfly1(p2, p3);
        butterfly(p0, p2, w0);
        butterfly(p1, p3, w1);
      });
    }
    h = 4;
  }
  for (; 4 * h <= n_; h *= 4) {
    for (std::size_t i = 0; i < n_; i += 4 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        const Twiddle w = twiddle(h, k), w0 = twiddle(2 * h, k), w1 = twiddle(2 * h, k + h);
        for_each_group(data + (i + k) * row, h * row, row,
                       [&](Point& p0, Point& p1, Point& p2, Point& p3) {
                         butterfly(p0, p1, w);
                         butterfly(p2, p3, w);
                         butterfly(p0, p2, w0);
                         butterfly(p1, p3, w1);
                       });
      }
    }
  }
  // When log2(n) is odd the last stage, h = n/2, is left over: one radix-2
  // pass (n = 2 has only stage 1).
  if (h < n_) {
    for (std::size_t k = 0; k < h; ++k) {
      const Twiddle w = twiddle(h, k);
      double* a = data + k * row;
      double* b = a + h * row;
      for (std::size_t c = 0; c < row; c += 2) {
        Point pa = load(a + c), pb = load(b + c);
        if (h == 1) {
          butterfly1(pa, pb);
        } else {
          butterfly(pa, pb, w);
        }
        store(a + c, pa);
        store(b + c, pb);
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
