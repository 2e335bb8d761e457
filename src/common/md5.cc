#include "common/md5.h"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace omega {

namespace {

constexpr int kShifts[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(|sin(i + 1)| * 2^32), the RFC's sine-derived constants.
const uint32_t* SineTable() {
  static uint32_t k[64];
  static const bool init = [] {
    for (int i = 0; i < 64; ++i) {
      k[i] = static_cast<uint32_t>(std::floor(std::fabs(std::sin(i + 1.0)) *
                                              4294967296.0));
    }
    return true;
  }();
  (void)init;
  return k;
}

uint32_t Rotl(uint32_t x, int c) { return (x << c) | (x >> (32 - c)); }

struct Md5State {
  uint32_t a = 0x67452301u;
  uint32_t b = 0xefcdab89u;
  uint32_t c = 0x98badcfeu;
  uint32_t d = 0x10325476u;

  void ProcessBlock(const unsigned char* p) {
    const uint32_t* K = SineTable();
    uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
      m[i] = static_cast<uint32_t>(p[i * 4]) |
             (static_cast<uint32_t>(p[i * 4 + 1]) << 8) |
             (static_cast<uint32_t>(p[i * 4 + 2]) << 16) |
             (static_cast<uint32_t>(p[i * 4 + 3]) << 24);
    }
    uint32_t A = a, B = b, C = c, D = d;
    for (int i = 0; i < 64; ++i) {
      uint32_t f;
      int g;
      if (i < 16) {
        f = (B & C) | (~B & D);
        g = i;
      } else if (i < 32) {
        f = (D & B) | (~D & C);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = B ^ C ^ D;
        g = (3 * i + 5) % 16;
      } else {
        f = C ^ (B | ~D);
        g = (7 * i) % 16;
      }
      const uint32_t tmp = D;
      D = C;
      C = B;
      B = B + Rotl(A + f + K[i] + m[g], kShifts[i]);
      A = tmp;
    }
    a += A;
    b += B;
    c += C;
    d += D;
  }
};

}  // namespace

std::string Md5Hex(const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  Md5State state;

  size_t i = 0;
  for (; i + 64 <= len; i += 64) state.ProcessBlock(bytes + i);

  // Final block(s): 0x80 terminator, zero pad, 64-bit little-endian bit count.
  unsigned char tail[128] = {};
  const size_t rem = len - i;
  if (rem > 0) std::memcpy(tail, bytes + i, rem);  // data may be null when len == 0
  tail[rem] = 0x80;
  const size_t tail_len = rem + 1 <= 56 ? 64 : 128;
  const uint64_t bit_count = static_cast<uint64_t>(len) * 8;
  for (int b = 0; b < 8; ++b) {
    tail[tail_len - 8 + b] = static_cast<unsigned char>(bit_count >> (8 * b));
  }
  state.ProcessBlock(tail);
  if (tail_len == 128) state.ProcessBlock(tail + 64);

  const uint32_t words[4] = {state.a, state.b, state.c, state.d};
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (uint32_t w : words) {
    for (int b = 0; b < 4; ++b) {
      const unsigned char byte = static_cast<unsigned char>(w >> (8 * b));
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
  return out;
}

std::string Md5Hex(const std::string& s) { return Md5Hex(s.data(), s.size()); }

}  // namespace omega
