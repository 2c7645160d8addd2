#ifndef PARPARAW_DFA_FLAG_MASKS_H_
#define PARPARAW_DFA_FLAG_MASKS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "dfa/dfa.h"

namespace parparaw {

// Word-at-a-time view of the bitmap indexes (§3.1). The pipeline stores
// SymbolFlags byte per symbol so parallel chunk writers never share a word;
// the passes that only *read* them turn each block of up to 64 flag bytes
// into one uint64_t mask per index and handle delimiters with
// popcount/countr_zero instead of one branch per byte.

static_assert(kSymbolRecordDelimiter == 1u << 0 &&
                  kSymbolFieldDelimiter == 1u << 1 &&
                  kSymbolControl == 1u << 2,
              "LoadFlagMasks gathers SymbolFlags bits 0, 1 and 2");

/// Symbols per mask block: one uint64_t bit each.
inline constexpr size_t kFlagBlock = 64;

/// The low `n` bits, for n in [0, 64] (a plain shift by 64 is undefined).
constexpr uint64_t BitsBelow(unsigned n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/// \brief The three bitmap indexes of one block: bit j describes symbol j
/// of the block. Bits at and past `size` are zero in every mask.
struct FlagMasks {
  uint64_t record = 0;   ///< kSymbolRecordDelimiter
  uint64_t field = 0;    ///< kSymbolFieldDelimiter
  uint64_t control = 0;  ///< kSymbolControl
  /// Symbols in the block (0..64).
  unsigned size = 0;

  /// Every field end: record and field delimiters (inclusive ones too).
  uint64_t ends() const { return record | field; }
  /// Field value symbols: neither a record delimiter nor a control symbol.
  /// An inclusive field boundary (kSymbolFieldDelimiter without
  /// kSymbolControl) is both a value symbol and an end.
  uint64_t values() const { return BitsBelow(size) & ~(record | control); }
};

namespace internal {

/// Little-endian 8-byte load: byte j lands in bits [8j, 8j + 8).
inline uint64_t LoadWordLe(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// Bit j of the result is bit `bit` of byte j of `word`: the per-byte bits
/// are isolated to bit 0 of each byte, and the multiply shifts byte j's bit
/// to position 56 + j without carries (every partial product lands on a
/// distinct bit below 64).
inline uint64_t GatherByteBits(uint64_t word, unsigned bit) {
  return (((word >> bit) & 0x0101010101010101ull) * 0x0102040810204080ull) >>
         56;
}

}  // namespace internal

/// Builds the masks for the `n` (clamped to 64) flag bytes at `flags`,
/// which need not be aligned; reads no byte at or past flags + n.
inline FlagMasks LoadFlagMasks(const uint8_t* flags, size_t n) {
  FlagMasks masks;
  masks.size = static_cast<unsigned>(std::min(n, kFlagBlock));
  uint8_t tail[kFlagBlock];
  const uint8_t* p = flags;
  if (masks.size < kFlagBlock) {
    std::memset(tail, 0, sizeof(tail));
    if (masks.size > 0) std::memcpy(tail, flags, masks.size);
    p = tail;
  }
  for (unsigned k = 0; k < kFlagBlock / 8; ++k) {
    const uint64_t word = internal::LoadWordLe(p + 8 * k);
    masks.record |= internal::GatherByteBits(word, 0) << (8 * k);
    masks.field |= internal::GatherByteBits(word, 1) << (8 * k);
    masks.control |= internal::GatherByteBits(word, 2) << (8 * k);
  }
  return masks;
}

/// Bit j set when bytes[j] == value, for j < n (n clamped to 64). Exact per
/// byte: the zero-byte test adds within each byte's low 7 bits, so no
/// borrow or carry crosses into a neighbouring byte.
inline uint64_t ByteEqualMask(const uint8_t* bytes, size_t n, uint8_t value) {
  const unsigned size = static_cast<unsigned>(std::min(n, kFlagBlock));
  uint8_t tail[kFlagBlock];
  const uint8_t* p = bytes;
  if (size < kFlagBlock) {
    std::memset(tail, 0, sizeof(tail));
    if (size > 0) std::memcpy(tail, bytes, size);
    p = tail;
  }
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  const uint64_t broadcast = 0x0101010101010101ull * value;
  uint64_t mask = 0;
  for (unsigned k = 0; k < kFlagBlock / 8; ++k) {
    const uint64_t x = internal::LoadWordLe(p + 8 * k) ^ broadcast;
    // High bit of each byte: set iff that byte of x is zero.
    const uint64_t zero = ~(((x & kLow7) + kLow7) | x) & ~kLow7;
    mask |= internal::GatherByteBits(zero, 7) << (8 * k);
  }
  return mask & BitsBelow(size);
}

/// Calls fn(block_begin, masks) for consecutive blocks of up to 64 flag
/// bytes covering [begin, end) of `flags`, in order.
template <typename Fn>
void ForEachFlagBlock(const uint8_t* flags, size_t begin, size_t end,
                      Fn&& fn) {
  for (size_t base = begin; base < end; base += kFlagBlock) {
    fn(base, LoadFlagMasks(flags + base, end - base));
  }
}

/// Index of the highest set bit; `mask` must be non-zero.
inline unsigned HighestBit(uint64_t mask) {
  return 63u - static_cast<unsigned>(std::countl_zero(mask));
}

}  // namespace parparaw

#endif  // PARPARAW_DFA_FLAG_MASKS_H_
