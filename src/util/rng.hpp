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

/// NPB-style linear congruential generator (a^k * s mod 2^46), used by the
/// src/npb kernels so their random streams match the benchmark definitions.
class NpbRandom {
 public:
  static constexpr double kA = 1220703125.0;  // 5^13, the NPB multiplier

  explicit NpbRandom(double seed = 314159265.0) : seed_(seed) {}

  /// Returns a uniform deviate in (0, 1) and advances the stream. Kernels
  /// draw through fill() or NpbPairStream; this one-step form is the
  /// reference they are tested against.
  double next() { return randlc(seed_, kA); }

  /// Current raw seed value.
  double seed() const { return seed_; }

  /// Jump the stream forward by `n` steps (O(log n)), enabling each parallel
  /// rank to own a disjoint, deterministic slice of one global stream.
  void skip(std::uint64_t n) {
    double t = kA;
    while (n != 0) {
      if (n & 1ULL) (void)randlc(seed_, t);
      double tt = t;
      (void)randlc(t, tt);
      n >>= 1;
    }
  }

  /// Fills `out` with the next out.size() deviates and leaves the stream
  /// where that many next() calls would. The state is an integer below 2^46
  /// (every NPB seed is), so fill() steps it in uint64_t: a*x mod 2^46 is the
  /// low 46 bits of the wrapped 64-bit product, one multiply and a mask,
  /// exactly what randlc's double-double decomposition computes. The serial
  /// chain is split into kFillChains interleaved chains, each stepping by
  /// a^kFillChains, so independent multiplies overlap in the pipeline; the
  /// output is bit-identical to stepping. Set-up is O(1) (the powers of a are
  /// compile-time constants), so small blocks cost the same per deviate as
  /// large ones.
  void fill(std::span<double> out) {
    constexpr double r46 = 0x1.0p-46, t46 = 0x1.0p46;
    constexpr std::uint64_t m46 = (1ULL << 46) - 1;
    const std::size_t n = out.size();
    if (n == 0) return;
    static constexpr std::array<std::uint64_t, kFillChains> a_pow = [] {
      std::array<std::uint64_t, kFillChains> pow{};  // pow[k] = a^(k+1) mod 2^46
      std::uint64_t a = 1;
      for (std::uint64_t& ak : pow) ak = a = (a * static_cast<std::uint64_t>(kA)) & m46;
      return pow;
    }();
    // Below 2^46, so the signed conversion is exact (and one instruction).
    const auto deviate = [](std::uint64_t x) {
      return r46 * static_cast<double>(static_cast<std::int64_t>(x));
    };
    const auto s = static_cast<std::uint64_t>(seed_);
    std::array<std::uint64_t, kFillChains> x{};  // chain k holds state k+1, k+1+K, ...
    for (std::size_t k = 0; k < kFillChains; ++k) x[k] = (a_pow[k] * s) & m46;
    const std::uint64_t a_k = a_pow[kFillChains - 1];
    std::size_t i = 0;
    for (; i + kFillChains <= n; i += kFillChains) {
      for (std::size_t k = 0; k < kFillChains; ++k) {
        out[i + k] = deviate(x[k]);
        x[k] = (x[k] * a_k) & m46;
      }
    }
    for (std::size_t k = 0; i < n && k < kFillChains; ++i, ++k) out[i] = deviate(x[k]);
    // The last deviate is the new state times 2^-46, exactly.
    seed_ = t46 * out[n - 1];
  }

  /// Core NPB randlc: x = a*x mod 2^46, returns x * 2^-46. Exactly the
  /// double-double decomposition from the NPB reference implementation.
  static double randlc(double& x, double a) {
    constexpr double r23 = 0x1.0p-23, t23 = 0x1.0p23;
    constexpr double r46 = 0x1.0p-46, t46 = 0x1.0p46;
    const double a1 = static_cast<double>(static_cast<long long>(r23 * a));
    const double a2 = a - t23 * a1;
    const double x1 = static_cast<double>(static_cast<long long>(r23 * x));
    const double x2 = x - t23 * x1;
    const double t1 = a1 * x2 + a2 * x1;
    const double t2 = static_cast<double>(static_cast<long long>(r23 * t1));
    const double z = t1 - t23 * t2;
    const double t3 = t23 * z + a2 * x2;
    const double t4 = static_cast<double>(static_cast<long long>(r46 * t3));
    x = t3 - t46 * t4;
    return r46 * x;
  }

 private:
  static constexpr std::size_t kFillChains = 8;

  double seed_;
};

/// Draws an NpbRandom stream two deviates at a time, bit-identical to two
/// next() calls: the odd and the even positions run as two chains, each
/// stepping by a^2 mod 2^46. A pair costs one randlc latency instead of two,
/// and a caller that consumes each pair as it comes (EP's acceptance test)
/// overlaps its own arithmetic with the chains. Unlike fill(), whose eight
/// chains run at the rate of the core's arithmetic units, this stays bound
/// by the chains' latency, so its speed does not follow whatever else is
/// running on the core.
class NpbPairStream {
 public:
  /// Starts where `from` stands; `from` itself does not advance.
  explicit NpbPairStream(const NpbRandom& from) : odd_(from.seed()), even_(from.seed()) {
    (void)NpbRandom::randlc(odd_, NpbRandom::kA);
    (void)NpbRandom::randlc(even_, kA2);
  }

  /// The stream's next two deviates, in order.
  std::pair<double, double> next() {
    constexpr double r46 = 0x1.0p-46;
    const double first = r46 * odd_, second = r46 * even_;
    (void)NpbRandom::randlc(odd_, kA2);
    (void)NpbRandom::randlc(even_, kA2);
    return {first, second};
  }

 private:
  static constexpr double kA2 =  // a^2 mod 2^46 (a = 5^13, so a^2 < 2^64)
      static_cast<double>((1220703125ULL * 1220703125ULL) % (1ULL << 46));

  double odd_;   // state of the pair's first deviate
  double even_;  // state of the pair's second deviate
};

}  // namespace isoee::util
