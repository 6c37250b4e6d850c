// Media-internal byte kernels shared by the H.264 and AAC writers: the one
// filler generator (a 64-bit LCG) and the one emulation-prevention
// escaper. Not part of the public media API; the writers and the kernel
// tests include it directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace psc::media::detail {

/// Knuth's MMIX LCG: state_{k+1} = kLcgA * state_k + kLcgC (mod 2^64).
inline constexpr std::uint64_t kLcgA = 6364136223846793005ull;
inline constexpr std::uint64_t kLcgC = 1442695040888963407ull;

inline constexpr std::uint64_t lcg_next(std::uint64_t state) {
  return state * kLcgA + kLcgC;
}

/// Write p[k] = state_{k+1} >> 33 (low byte) for k in [0, n), stepping
/// the LCG from `state`, and return state_n. Byte-identical to n calls of
/// lcg_next; jump-ahead lanes make it run at multiply throughput.
std::uint64_t lcg_fill(std::uint8_t* p, std::size_t n, std::uint64_t state);

/// Set every byte whose low nibble is zero to 0x00 (the slice filler's
/// zero-run injection, ~1/16 of bytes, so escaping gets exercised).
void zero_low_nibbles(std::uint8_t* p, std::size_t n);

/// Append d[0, n) to `out` in escaped (EBSP) form: 00 00 0x becomes
/// 00 00 03 0x for x <= 3. `zeros` is the count of consecutive zero bytes
/// just before d[0] and is updated to the count after d[n-1], so a payload
/// can be escaped in pieces; only min(zeros, 2) matters.
void escape_append(Bytes& out, const std::uint8_t* d, std::size_t n,
                   std::size_t& zeros);

/// RBSP bytes of slice filler append_annexb_slice generates per pass
/// through its stack buffer.
inline constexpr std::size_t kSliceFillChunk = 4096;

}  // namespace psc::media::detail
