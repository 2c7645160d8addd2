#ifndef PARPARAW_SIMD_SIMD_KERNELS_H_
#define PARPARAW_SIMD_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "dfa/dfa.h"
#include "dfa/state_vector.h"
#include "simd/dispatch.h"

namespace parparaw::simd {

/// Registered (non-catch-all) symbols a DFA can have; bounded by the
/// DfaBuilder's 16-symbol limit.
inline constexpr int kMaxSpecialSymbols = 16;

/// Symbol groups including the trailing catch-all group.
inline constexpr int kMaxSymbolGroups = kMaxSpecialSymbols + 1;

/// \brief Precomputed, DFA-derived lookup tables shared by every kernel
/// level for one parse.
///
/// The shuffle-as-gather layout: byte s of group_tables[g] holds
/// NextState(s, g), so one PSHUFB/TBL with the current 16-lane state vector
/// as the index operand advances *all* DFA instances by one symbol — the
/// vector realisation of the packed Table 1 row. The flat [state<<8|byte]
/// LUTs serve the single-state (converged / bitmap) walks; group_of_byte is
/// the SwarMatcher's classification materialised per byte value so the hot
/// loops pay one L1 load instead of the register scan.
struct KernelPlan {
  int num_states = 0;
  int invalid_state = -1;
  /// The DFA's start state: the reference lane for the convergence test.
  int start_state = 0;
  /// invalid_state when it is absorbing (every group maps it to itself),
  /// else 0xFF (matches no lane). Lanes sitting in an absorbing trap can
  /// never re-merge with live lanes, so the convergence test treats them
  /// as wildcards: their final value is already decided.
  uint8_t trap_state = 0xFF;
  int catchall_group = 0;
  int num_specials = 0;
  /// Symbols whose group is not the catch-all, ascending byte order.
  uint8_t special_symbols[kMaxSpecialSymbols] = {};
  /// byte value -> symbol group (built via Dfa::SymbolGroup, i.e. the SWAR
  /// matcher of Table 2).
  uint8_t group_of_byte[256] = {};
  /// Per-group shuffle tables: byte s = NextState(s, g).
  alignas(16) uint8_t group_tables[kMaxSymbolGroups][16] = {};
  /// The catch-all transition composed with itself 16x / 32x: advances a
  /// whole vector block of data symbols with a single shuffle.
  alignas(16) uint8_t catchall_pow16[16] = {};
  alignas(16) uint8_t catchall_pow32[16] = {};
  /// Flat single-state LUTs indexed [state << 8 | byte].
  uint8_t next_flat[kMaxDfaStates * 256] = {};
  uint8_t flags_flat[kMaxDfaStates * 256] = {};
  /// state_skippable[s]: s self-loops on catch-all input with zero flags,
  /// so a block with no special symbols can be skipped outright while in s.
  bool state_skippable[kMaxDfaStates] = {};
};

/// Derives the plan from a built DFA. Cheap (a few KB of table fills); the
/// pipeline builds one per parse and shares it across chunks.
KernelPlan BuildKernelPlan(const Dfa& dfa);

/// \brief Result of the fused context+bitmap kernel over one chunk.
///
/// The kernel always produces the chunk's exact state-transition vector.
/// Speculation: once every live lane of the vector holds the same state
/// (lanes in the absorbing trap state are wildcards — their outcome is
/// fixed), the chunk's suffix is entry-state-independent for every entry
/// that has not already trapped, so the kernel drops to single-state
/// simulation and emits the symbol-class flags for the remaining bytes in
/// the same pass. spec_offset records where that fused region starts (-1:
/// the lanes never converged and no flags were emitted); spec_state is the
/// converged state there, which the bitmap step uses as its verification
/// token — an entry whose true path trapped earlier arrives in the trap
/// state instead, fails the token check, and takes the exact re-walk.
struct ChunkKernelResult {
  StateVector vector;
  int64_t spec_offset = -1;
  uint8_t spec_state = 0;
  /// Earliest in-chunk offset >= spec_offset whose transition enters the
  /// DFA's invalid state from a non-invalid state, or -1.
  int64_t first_invalid = -1;
};

/// Fused kernel signature: simulates [begin, end) of `data`, writing
/// speculative flags into flags_out (absolute indexing; the array must be
/// pre-zeroed) for bytes at and after the convergence point.
using ChunkKernelFn = ChunkKernelResult (*)(const KernelPlan& plan,
                                            const uint8_t* data, size_t begin,
                                            size_t end, uint8_t* flags_out);

/// The kernel for a level. kScalar has no fused kernel (the reference
/// pipeline path is used instead) and returns nullptr; unavailable arch
/// levels fall back to the portable SWAR kernel.
ChunkKernelFn GetChunkKernel(KernelLevel level);

/// \brief Summary of a single-state flag walk (the bitmap pass over one
/// chunk region): counts mirror the scalar BitmapStep exactly.
struct FlagWalkResult {
  uint8_t end_state = 0;
  uint32_t records = 0;
  uint32_t fields_since_record = 0;
  bool saw_record_delimiter = false;
  int64_t first_invalid = -1;
};

/// Walks [begin, end) from `entry_state` with the flat LUTs, writing every
/// byte's flags and counting record/field delimiters. Skips runs of
/// non-special symbols in skippable states via SWAR word probes.
FlagWalkResult WalkEmitFlags(const KernelPlan& plan, const uint8_t* data,
                             size_t begin, size_t end, uint8_t entry_state,
                             uint8_t* flags_out);

/// Counts record/field delimiters from already-emitted flags over
/// [begin, end) (the verified speculative region), 64 flag bytes per mask
/// block (dfa/flag_masks.h); end_state is not meaningful in the result.
FlagWalkResult CountEmittedFlags(const uint8_t* flags, size_t begin,
                                 size_t end);

namespace internal {

/// Portable fallback kernel (no vector intrinsics).
ChunkKernelResult ChunkKernelSwar(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  uint8_t* flags_out);

/// Arch kernels; defined only in their per-ISA translation units (see
/// src/CMakeLists.txt) and only reachable through GetChunkKernel after the
/// runtime CPU check.
ChunkKernelResult ChunkKernelSse42(const KernelPlan& plan, const uint8_t* data,
                                   size_t begin, size_t end,
                                   uint8_t* flags_out);
ChunkKernelResult ChunkKernelAvx2(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  uint8_t* flags_out);
ChunkKernelResult ChunkKernelNeon(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  uint8_t* flags_out);

}  // namespace internal

}  // namespace parparaw::simd

#endif  // PARPARAW_SIMD_SIMD_KERNELS_H_
