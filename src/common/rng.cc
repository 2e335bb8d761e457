#include "common/rng.h"

#include <array>
#include <bit>

namespace omega {

namespace {

// A GF(2) polynomial of degree < 256: bit i % 64 of word i / 64 holds the
// coefficient of x^i. Every value is reduced modulo the characteristic
// polynomial P = x^256 + Rng::kCharPoly, so x^256 == kCharPoly.
using Poly = std::array<uint64_t, 4>;

// p <- p * x mod P.
void MulX(Poly& p) {
  const uint64_t carry = 0 - (p[3] >> 63);
  p[3] = (p[3] << 1) | (p[2] >> 63);
  p[2] = (p[2] << 1) | (p[1] >> 63);
  p[1] = (p[1] << 1) | (p[0] >> 63);
  p[0] <<= 1;
  for (int w = 0; w < 4; ++w) p[w] ^= Rng::kCharPoly[w] & carry;
}

// Moves bit i of the low 32 bits of x to bit 2i: over GF(2) the square of
// sum a_i x^i is sum a_i x^2i.
uint64_t SpreadBits(uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  return (x | (x << 1)) & 0x5555555555555555ULL;
}

// p^2 mod P. The square has degree < 512; each set bit 256 + k of its high
// half is folded down by XORing in x^(256+k) mod P from a table.
Poly SquareMod(const Poly& p) {
  static const std::array<Poly, 256> kHighPowers = [] {
    std::array<Poly, 256> powers;
    Poly power{Rng::kCharPoly[0], Rng::kCharPoly[1], Rng::kCharPoly[2],
               Rng::kCharPoly[3]};  // x^256
    for (Poly& entry : powers) {
      entry = power;
      MulX(power);
    }
    return powers;
  }();
  uint64_t wide[8];
  for (int w = 0; w < 4; ++w) {
    wide[2 * w] = SpreadBits(p[w]);
    wide[2 * w + 1] = SpreadBits(p[w] >> 32);
  }
  Poly acc{wide[0], wide[1], wide[2], wide[3]};
  for (int w = 4; w < 8; ++w) {
    for (uint64_t high = wide[w]; high != 0; high &= high - 1) {
      const Poly& fold = kHighPowers[64 * (w - 4) + std::countr_zero(high)];
      for (int i = 0; i < 4; ++i) acc[i] ^= fold[i];
    }
  }
  return acc;
}

}  // namespace

void Rng::Jump(uint64_t steps) {
  // x^steps mod P by left-to-right square-and-multiply from the top set
  // bit; multiplying by x is a shift, so only the squarings cost.
  Poly jump{1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(steps); bit >= 0; --bit) {
    jump = SquareMod(jump);
    if ((steps >> bit) & 1) MulX(jump);
  }
  // T^steps s == jump(T) s, since P(T) = 0 (Cayley-Hamilton). Horner's rule:
  // acc <- T acc + j_i s, from the top coefficient down.
  uint64_t acc[4] = {0, 0, 0, 0};
  for (int i = 255; i >= 0; --i) {
    Advance(acc);
    if ((jump[i / 64] >> (i % 64)) & 1) {
      for (int w = 0; w < 4; ++w) acc[w] ^= state_[w];
    }
  }
  for (int w = 0; w < 4; ++w) state_[w] = acc[w];
}

}  // namespace omega
