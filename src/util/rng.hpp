// Deterministic random number generation for simulation and workloads.
//
// Everything in the simulator must be reproducible from a single seed; we use
// splitmix64 for seeding and xoshiro256** as the workhorse generator (both
// public-domain algorithms by Blackman & Vigna). <random> distributions are
// deliberately avoided because their outputs are not portable across standard
// library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace isoee::util {

/// splitmix64 step; used to expand a 64-bit seed into generator state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Fast, 256-bit state, passes BigCrush.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>((*this)()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0ULL - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method (same algorithm NPB EP uses).
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double x, y, s;
    do {
      x = uniform(-1.0, 1.0);
      y = uniform(-1.0, 1.0);
      s = x * x + y * y;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = y * scale;
    have_spare_ = true;
    return x * scale;
  }

  /// Lognormal multiplicative jitter with the given sigma, mean ~1.
  double jitter(double sigma) { return std::exp(sigma * normal() - 0.5 * sigma * sigma); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// NPB-style linear congruential generator (x <- a*x mod 2^46, deviate
/// x * 2^-46), used by the src/npb kernels so their random streams match the
/// benchmark definitions. The state is an integer below 2^46 held in
/// uint64_t: a*x mod 2^46 is the low 46 bits of the wrapped 64-bit product,
/// one multiply and a mask, exactly what NPB's randlc computes with its
/// double-double decomposition.
class NpbRandom {
 public:
  static constexpr std::uint64_t kA = 1220703125;  // 5^13, the NPB multiplier

  /// Throws std::invalid_argument unless `seed` is an integer in [0, 2^46).
  explicit NpbRandom(double seed = 314159265.0) : state_(to_state(seed)) {}

  /// Returns a uniform deviate in (0, 1) and advances the stream. Kernels
  /// draw through fill() or NpbPairStream; this one-step form is the
  /// reference they are tested against.
  double next() {
    state_ = step(state_, kA);
    return deviate(state_);
  }

  /// Current state as a double (exact: it is below 2^46).
  double seed() const { return static_cast<double>(state_); }

  /// Jump the stream forward by `n` steps (O(log n)), enabling each parallel
  /// rank to own a disjoint, deterministic slice of one global stream.
  void skip(std::uint64_t n) {
    std::uint64_t t = kA;  // a^(2^k) mod 2^46
    while (n != 0) {
      if (n & 1ULL) state_ = step(state_, t);
      t = step(t, t);
      n >>= 1;
    }
  }

  /// Fills `out` with the next out.size() deviates and leaves the stream
  /// where that many next() calls would. The serial chain is split into
  /// kFillChains interleaved chains, each stepping by a^kFillChains, so
  /// independent multiplies overlap in the pipeline; the output is
  /// bit-identical to stepping. Set-up is O(1) (the powers of a are
  /// compile-time constants), so small blocks cost the same per deviate as
  /// large ones.
  void fill(std::span<double> out) {
    const std::size_t n = out.size();
    if (n == 0) return;
    static constexpr std::array<std::uint64_t, kFillChains> a_pow = [] {
      std::array<std::uint64_t, kFillChains> pow{};  // pow[k] = a^(k+1) mod 2^46
      std::uint64_t a = 1;
      for (std::uint64_t& ak : pow) ak = a = (a * kA) & kMask;
      return pow;
    }();
    std::array<std::uint64_t, kFillChains> x{};  // chain k holds state k+1, k+1+K, ...
    for (std::size_t k = 0; k < kFillChains; ++k) x[k] = step(state_, a_pow[k]);
    const std::uint64_t a_k = a_pow[kFillChains - 1];
    std::size_t i = 0;
    for (; i + kFillChains < n; i += kFillChains) {
      for (std::size_t k = 0; k < kFillChains; ++k) {
        out[i + k] = deviate(x[k]);
        x[k] = step(x[k], a_k);
      }
    }
    // The last 1..K deviates come from chains not yet stepped past them, so
    // the last one's state is the new state.
    for (std::size_t k = 0; i < n && k < kFillChains; ++i, ++k) {
      state_ = x[k];
      out[i] = deviate(state_);
    }
  }

 private:
  friend class NpbPairStream;

  static constexpr std::size_t kFillChains = 8;
  static constexpr std::uint64_t kMask = (1ULL << 46) - 1;

  /// a*x mod 2^46 for a, x below 2^46.
  static constexpr std::uint64_t step(std::uint64_t x, std::uint64_t a) {
    return (x * a) & kMask;
  }

  /// x * 2^-46. Below 2^46, so the signed conversion is exact (and one
  /// instruction).
  static double deviate(std::uint64_t x) {
    return 0x1.0p-46 * static_cast<double>(static_cast<std::int64_t>(x));
  }

  static std::uint64_t to_state(double seed) {
    if (!(seed >= 0.0 && seed < 0x1.0p46) || seed != std::floor(seed)) {
      throw std::invalid_argument(
          "NpbRandom: seed must be an integer in [0, 2^46), got " + std::to_string(seed));
    }
    return static_cast<std::uint64_t>(seed);
  }

  std::uint64_t state_;
};

/// Draws an NpbRandom stream two deviates at a time, bit-identical to two
/// next() calls: the odd and the even positions run as two chains, each
/// stepping by a^2 mod 2^46, so a pair costs one multiply latency instead of
/// two. A caller that consumes each pair as it comes (EP's acceptance test)
/// overlaps its own arithmetic with the chains. Unlike fill(), whose eight
/// chains run at the rate of the core's arithmetic units, this stays bound
/// by the chains' latency, so its speed does not follow whatever else is
/// running on the core.
class NpbPairStream {
 public:
  /// Starts where `from` stands; `from` itself does not advance.
  explicit NpbPairStream(const NpbRandom& from)
      : odd_(NpbRandom::step(from.state_, NpbRandom::kA)),
        even_(NpbRandom::step(from.state_, kA2)) {}

  /// The stream's next two deviates, in order.
  std::pair<double, double> next() {
    const double first = NpbRandom::deviate(odd_), second = NpbRandom::deviate(even_);
    odd_ = NpbRandom::step(odd_, kA2);
    even_ = NpbRandom::step(even_, kA2);
    return {first, second};
  }

 private:
  static constexpr std::uint64_t kA2 = NpbRandom::step(NpbRandom::kA, NpbRandom::kA);

  std::uint64_t odd_;   // state of the pair's first deviate
  std::uint64_t even_;  // state of the pair's second deviate
};

}  // namespace isoee::util
