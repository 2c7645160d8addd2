#include "simd/simd_kernels.h"

#include <bit>
#include <cstring>

#include "dfa/flag_masks.h"
#include "simd/kernel_common.h"

namespace parparaw::simd {

namespace {

/// Composes two 16-entry transition tables: out[s] = b[a[s]].
void ComposeTables(const uint8_t a[16], const uint8_t b[16], uint8_t out[16]) {
  for (int s = 0; s < 16; ++s) out[s] = b[a[s]];
}

}  // namespace

KernelPlan BuildKernelPlan(const Dfa& dfa) {
  KernelPlan plan;
  plan.num_states = dfa.num_states();
  plan.invalid_state = dfa.invalid_state();
  plan.start_state = dfa.start_state();
  plan.catchall_group = dfa.num_symbol_groups() - 1;

  // Trap-masking is only sound when the invalid state is absorbing; the
  // builder marks it by convention but does not enforce it, so verify.
  if (plan.invalid_state >= 0) {
    bool absorbing = true;
    for (int g = 0; g < dfa.num_symbol_groups(); ++g) {
      if (dfa.NextState(plan.invalid_state, g) != plan.invalid_state) {
        absorbing = false;
        break;
      }
    }
    if (absorbing) plan.trap_state = static_cast<uint8_t>(plan.invalid_state);
  }

  for (int b = 0; b < 256; ++b) {
    const int group = dfa.SymbolGroup(static_cast<uint8_t>(b));
    plan.group_of_byte[b] = static_cast<uint8_t>(group);
    if (group != plan.catchall_group &&
        plan.num_specials < kMaxSpecialSymbols) {
      plan.special_symbols[plan.num_specials++] = static_cast<uint8_t>(b);
    }
  }

  for (int g = 0; g < dfa.num_symbol_groups(); ++g) {
    for (int s = 0; s < 16; ++s) {
      // Entries past num_states read zero nibbles of the packed row; they
      // are never used as lookup indices (lanes only ever hold live
      // states) but keep the table total.
      plan.group_tables[g][s] = dfa.NextState(s, g);
    }
  }

  // Catch-all transition powers for the whole-block fast path.
  uint8_t pow[16];
  std::memcpy(pow, plan.group_tables[plan.catchall_group], 16);
  for (int doubling = 0; doubling < 4; ++doubling) {  // T^2, T^4, T^8, T^16
    ComposeTables(pow, pow, pow);
  }
  std::memcpy(plan.catchall_pow16, pow, 16);
  ComposeTables(pow, pow, pow);  // T^32
  std::memcpy(plan.catchall_pow32, pow, 16);

  for (int s = 0; s < plan.num_states; ++s) {
    for (int b = 0; b < 256; ++b) {
      const int group = plan.group_of_byte[b];
      plan.next_flat[(s << 8) | b] = dfa.NextState(s, group);
      plan.flags_flat[(s << 8) | b] = dfa.Flags(s, group);
    }
    plan.state_skippable[s] =
        dfa.NextState(s, plan.catchall_group) == s &&
        dfa.Flags(s, plan.catchall_group) == 0;
  }
  return plan;
}

namespace internal {

ChunkKernelResult ChunkKernelSwar(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  uint8_t* flags_out) {
  ChunkKernelResult result;
  alignas(16) uint8_t lanes[16];
  InitIdentityLanes(plan, lanes);

  // Multi-state phase: advance all lanes per byte until they converge.
  size_t i = begin;
  while (i < end && !LanesConverged(plan, lanes)) {
    const uint8_t* table = plan.group_tables[plan.group_of_byte[data[i]]];
    for (int l = 0; l < 16; ++l) lanes[l] = table[lanes[l]];
    ++i;
  }

  if (!LanesConverged(plan, lanes)) {
    result.vector = LanesToVector(plan, lanes);
    return result;
  }

  // Converged: the suffix is entry-state-independent (up to trapped
  // entries), so fuse the bitmap pass — single-state simulation emitting
  // flags, with SWAR word probes skipping runs of plain data symbols in
  // skippable states.
  result.spec_offset = static_cast<int64_t>(i);
  result.spec_state = lanes[plan.start_state];
  uint8_t state = lanes[plan.start_state];
  while (i < end) {
    if (plan.state_skippable[state] && i + 8 <= end) {
      const uint64_t hits = SpecialMaskSwar(plan, data + i);
      if (hits == 0) {
        i += 8;  // flags stay zero, state unchanged
        continue;
      }
      i += CleanPrefixSwar(hits);  // jump to the first special symbol
    }
    FusedStepByte(plan, data, i, flags_out, &state, &result.first_invalid);
    ++i;
  }
  result.vector = ConvergedVector(plan, lanes, state);
  return result;
}

}  // namespace internal

ChunkKernelFn GetChunkKernel(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return nullptr;
    case KernelLevel::kSwar:
      return internal::ChunkKernelSwar;
    case KernelLevel::kSse42:
#ifdef PARPARAW_HAVE_SSE42_KERNEL
      return internal::ChunkKernelSse42;
#else
      return internal::ChunkKernelSwar;
#endif
    case KernelLevel::kAvx2:
#ifdef PARPARAW_HAVE_AVX2_KERNEL
      return internal::ChunkKernelAvx2;
#else
      return internal::ChunkKernelSwar;
#endif
    case KernelLevel::kNeon:
#ifdef PARPARAW_HAVE_NEON_KERNEL
      return internal::ChunkKernelNeon;
#else
      return internal::ChunkKernelSwar;
#endif
  }
  return internal::ChunkKernelSwar;
}

FlagWalkResult WalkEmitFlags(const KernelPlan& plan, const uint8_t* data,
                             size_t begin, size_t end, uint8_t entry_state,
                             uint8_t* flags_out) {
  FlagWalkResult result;
  uint8_t state = entry_state;
  size_t i = begin;
  while (i < end) {
    if (plan.state_skippable[state] && i + 8 <= end) {
      const uint64_t hits = internal::SpecialMaskSwar(plan, data + i);
      if (hits == 0) {
        i += 8;
        continue;
      }
      i += internal::CleanPrefixSwar(hits);
    }
    const unsigned idx =
        (static_cast<unsigned>(state) << 8) | static_cast<unsigned>(data[i]);
    const uint8_t flags = plan.flags_flat[idx];
    flags_out[i] = flags;
    if (flags & kSymbolRecordDelimiter) {
      ++result.records;
      result.fields_since_record = 0;
      result.saw_record_delimiter = true;
    } else if (flags & kSymbolFieldDelimiter) {
      ++result.fields_since_record;
    }
    const uint8_t next = plan.next_flat[idx];
    if (plan.invalid_state >= 0 && next == plan.invalid_state &&
        state != plan.invalid_state && result.first_invalid < 0) {
      result.first_invalid = static_cast<int64_t>(i);
    }
    state = next;
    ++i;
  }
  result.end_state = state;
  return result;
}

FlagWalkResult CountEmittedFlags(const uint8_t* flags, size_t begin,
                                 size_t end) {
  FlagWalkResult result;
  ForEachFlagBlock(flags, begin, end, [&](size_t, const FlagMasks& m) {
    // A record delimiter takes precedence over a field bit on the same
    // byte, exactly as in WalkEmitFlags.
    const uint64_t fields = m.field & ~m.record;
    if (m.record != 0) {
      result.records += static_cast<uint32_t>(std::popcount(m.record));
      result.fields_since_record = static_cast<uint32_t>(
          std::popcount(fields & ~BitsBelow(HighestBit(m.record) + 1)));
      result.saw_record_delimiter = true;
    } else {
      result.fields_since_record +=
          static_cast<uint32_t>(std::popcount(fields));
    }
  });
  return result;
}

}  // namespace parparaw::simd
