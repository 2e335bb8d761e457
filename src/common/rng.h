// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of omega (RMAT generation, Gaussian projections,
// negative sampling) draw from these generators with explicit seeds so that
// every experiment is reproducible bit-for-bit.

#pragma once

#include <cmath>
#include <cstdint>

namespace omega {

/// SplitMix64: used to seed and to hash integers into well-mixed values.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief xoshiro256** — a small, fast, high-quality PRNG.
///
/// Satisfies UniformRandomBitGenerator so it can also feed <random>
/// distributions where convenient.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) {
      x = SplitMix64(x);
      s = x;
    }
    has_gaussian_ = false;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    Advance(state_);
    return result;
  }

  /// Leaves the state exactly as `steps` calls to Next() would, in
  /// O(256 log2 steps) word operations instead of O(steps). The state
  /// transition is linear over GF(2), so it computes x^steps modulo the
  /// transition's characteristic polynomial and applies that polynomial to
  /// the state by Horner's rule (Haramoto et al., "Efficient Jump Ahead for
  /// F2-Linear Random Number Generators", INFORMS J. Computing 2008). A cached
  /// Gaussian is kept: only Next()'s stream moves.
  void Jump(uint64_t steps);

  /// The characteristic polynomial of the state transition, minus its
  /// leading x^256 term: bit i % 64 of word i / 64 is the coefficient of x^i.
  /// It is primitive, so a Berlekamp-Massey run over any one state bit's
  /// sequence recovers it.
  static constexpr uint64_t kCharPoly[4] = {
      0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
      0x0003c03c3f3ecb19ULL};

  uint64_t operator()() { return Next(); }

  /// Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound) without modulo bias (Lemire reduction).
  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) return 0;
    unsigned __int128 m = static_cast<unsigned __int128>(Next()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  /// Standard normal via Box-Muller with caching of the second draw.
  double NextGaussian() {
    if (has_gaussian_) {
      has_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = 0.0;
    while (u1 == 0.0) u1 = NextDouble();
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_gaussian_ = r * std::sin(theta);
    has_gaussian_ = true;
    return r * std::cos(theta);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// One step of the linear state transition.
  static void Advance(uint64_t* s) {
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = Rotl(s[3], 45);
  }

  uint64_t state_[4];
  bool has_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace omega
