#include "media/kernels.h"

#include <bit>
#include <cstring>

namespace psc::media::detail {

namespace {

// GCC/Clang generic vectors: these lower to baseline SSE2 on x86-64 and
// NEON on aarch64, with no intrinsics and no per-ISA code path.
using U8x16 = std::uint8_t __attribute__((vector_size(16)));
using U64x2 = std::uint64_t __attribute__((vector_size(16)));

inline U8x16 load16(const std::uint8_t* p) {
  U8x16 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// (A^k, C_k) with state_{n+k} = A^k * state_n + C_k.
constexpr std::uint64_t jump_a(int k) {
  std::uint64_t a = 1;
  for (int i = 0; i < k; ++i) a *= kLcgA;
  return a;
}
constexpr std::uint64_t jump_c(int k) {
  std::uint64_t c = 0;
  for (int i = 0; i < k; ++i) c = lcg_next(c);
  return c;
}
constexpr std::uint64_t kJumpA = jump_a(16);
constexpr std::uint64_t kJumpC = jump_c(16);

/// Eight consecutive LCG states, each jumped 16 steps per block. Two
/// chains interleave to cover a 16-byte block, so each byte costs one
/// independent multiply instead of a link in one serial chain. Named
/// members (not an array) keep all eight states in registers.
struct Chain8 {
  std::uint64_t s0, s1, s2, s3, s4, s5, s6, s7;

  explicit Chain8(std::uint64_t s)
      : s0(lcg_next(s)), s1(lcg_next(s0)), s2(lcg_next(s1)),
        s3(lcg_next(s2)), s4(lcg_next(s3)), s5(lcg_next(s4)),
        s6(lcg_next(s5)), s7(lcg_next(s6)) {}

  void emit(std::uint8_t* p) const {
    p[0] = static_cast<std::uint8_t>(s0 >> 33);
    p[1] = static_cast<std::uint8_t>(s1 >> 33);
    p[2] = static_cast<std::uint8_t>(s2 >> 33);
    p[3] = static_cast<std::uint8_t>(s3 >> 33);
    p[4] = static_cast<std::uint8_t>(s4 >> 33);
    p[5] = static_cast<std::uint8_t>(s5 >> 33);
    p[6] = static_cast<std::uint8_t>(s6 >> 33);
    p[7] = static_cast<std::uint8_t>(s7 >> 33);
  }

  void jump() {
    s0 = s0 * kJumpA + kJumpC;
    s1 = s1 * kJumpA + kJumpC;
    s2 = s2 * kJumpA + kJumpC;
    s3 = s3 * kJumpA + kJumpC;
    s4 = s4 * kJumpA + kJumpC;
    s5 = s5 * kJumpA + kJumpC;
    s6 = s6 * kJumpA + kJumpC;
    s7 = s7 * kJumpA + kJumpC;
  }
};

/// Byte index of the lowest set byte of a nonzero comparison mask word.
inline std::size_t first_set_byte(std::uint64_t m) {
  const int bit = std::endian::native == std::endian::little
                      ? std::countr_zero(m)
                      : std::countl_zero(m);
  return static_cast<std::size_t>(bit / 8);
}

/// The escaping rule itself, one byte at a time.
void escape_scalar(Bytes& out, const std::uint8_t* d, std::size_t n,
                   std::size_t& zeros) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = d[i];
    if (zeros >= 2 && b <= 0x03) {
      out.push_back(0x03);
      zeros = 0;
    }
    out.push_back(b);
    zeros = (b == 0x00) ? zeros + 1 : 0;
  }
}

}  // namespace

std::uint64_t lcg_fill(std::uint8_t* p, std::size_t n, std::uint64_t state) {
  std::size_t i = 0;
  if (n >= 16) {
    Chain8 lo(state);
    Chain8 hi(lo.s7);
    for (; i + 16 <= n; i += 16) {
      lo.emit(p + i);
      hi.emit(p + i + 8);
      state = hi.s7;
      lo.jump();
      hi.jump();
    }
  }
  for (; i < n; ++i) {
    state = lcg_next(state);
    p[i] = static_cast<std::uint8_t>(state >> 33);
  }
  return state;
}

void zero_low_nibbles(std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    U8x16 v = load16(p + i);
    v &= ~reinterpret_cast<U8x16>((v & 0x0F) == 0);
    std::memcpy(p + i, &v, sizeof v);
  }
  for (; i < n; ++i) {
    if ((p[i] & 0x0F) == 0) p[i] = 0x00;
  }
}

void escape_append(Bytes& out, const std::uint8_t* d, std::size_t n,
                   std::size_t& zeros) {
  // Scan 16-byte blocks for windows d[j-2] == d[j-1] == 0, d[j] <= 3.
  // An escape can only fire inside such a window (the running zero count
  // never exceeds the raw zero run), so flag-free blocks are part of a
  // clean span that is bulk-copied, and the scalar rule runs only from
  // the first flagged byte to the end of its block.
  //
  // The count at that byte is 2 (its two zero bytes were preceded by a
  // non-zero one, or the byte before would be flagged) unless the block
  // follows a scalar run straight away: then a flag on its first byte
  // may rest on zeros the scalar run already reset, and the carried
  // count holds. The first two bytes run scalar from the caller's count,
  // giving the vector loads their two bytes of look-back.
  std::size_t i = n < 2 ? n : 2;
  escape_scalar(out, d, i, zeros);
  std::size_t copied = i;  // d[0, copied) is in `out`
  std::size_t exact = i;   // `zeros` is the count before d[exact]
  for (; i + 16 <= n; i += 16) {
    const auto flags = (load16(d + i - 2) == 0) & (load16(d + i - 1) == 0) &
                       (load16(d + i) <= 0x03);
    const auto m = reinterpret_cast<U64x2>(flags);
    if ((m[0] | m[1]) == 0) continue;
    const std::size_t j =
        i + (m[0] != 0 ? first_set_byte(m[0]) : 8 + first_set_byte(m[1]));
    out.insert(out.end(), d + copied, d + j);
    if (j != exact) zeros = 2;
    escape_scalar(out, d + j, i + 16 - j, zeros);
    copied = exact = i + 16;
  }
  out.insert(out.end(), d + copied, d + i);
  // After a clean block the zero run it ends with is the count (at most
  // 2: a third zero would have been flagged).
  if (i != exact) zeros = d[i - 1] != 0 ? 0 : (d[i - 2] != 0 ? 1 : 2);
  escape_scalar(out, d + i, n - i, zeros);
}

}  // namespace psc::media::detail
