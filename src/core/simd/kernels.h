#ifndef TMOTIF_CORE_SIMD_KERNELS_H_
#define TMOTIF_CORE_SIMD_KERNELS_H_

// The narrow contract of the vectorized counting kernels. The counting
// core (core/enumerate_core.h, over both graph types) and the packed
// accumulation table (core/packed_table.h) reach SIMD exclusively
// through the function-pointer table below — resolved once per process
// by core/simd/dispatch.h — so every call site is oblivious to which ISA
// variant actually runs, and the scalar variant (always compiled, forced
// via TMOTIF_FORCE_SCALAR=1) is bit-identical to the SSE4.2 one by
// contract:
//
//   * MatchTags / MatchEmpty return the SAME 16-bit masks, so the
//     table's probe sequence — and therefore its layout and telemetry —
//     does not depend on the dispatch level,
//   * DistinctPairCount / PrefilterCodes return the SAME verdicts.
//
// tests/kernel_diff_test.cc pins these equivalences on seeded inputs and
// re-runs the counting grids at every available level.

#include <cstdint>

#include "common/types.h"

namespace tmotif {
namespace simd {

/// Control-group width of the packed table's swiss-style probe (16 tag
/// bytes compared per step — one SSE register).
constexpr int kGroupSize = 16;

/// Control byte marking an empty slot. Occupied slots hold a 7-bit tag
/// (top bits of the key hash), so tags never collide with this value.
constexpr std::uint8_t kEmptyCtrl = 0x80;

struct KernelOps {
  /// (a) Probe-group matchers over `kGroupSize` control bytes: bit i of
  /// the returned mask is set iff group[i] == tag (resp. == kEmptyCtrl).
  std::uint32_t (*match_tags)(const std::uint8_t* group, std::uint8_t tag);
  std::uint32_t (*match_empty)(const std::uint8_t* group);

  /// (b) Number of distinct bytes among the low `k` bytes of a packed
  /// motif code (1 <= k <= 8; every code byte is non-zero). The
  /// instance-side half of the static-inducedness coverage check.
  int (*distinct_pair_count)(std::uint64_t packed, int k);

  /// (c) Run-level pre-filter for the scope-saturated final path:
  /// out_pass[i] = 1 iff distinct_pair_count(codes[i], k) == want, for
  /// i < n. Codes follow the same non-zero-byte packing as (b).
  void (*prefilter_codes)(const std::uint64_t* codes, int n, int k,
                          int want, std::uint8_t* out_pass);
};

/// Index of the lowest set bit of a non-zero probe mask (the next
/// candidate slot within a group).
inline int TrailingZeros(std::uint32_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctz(x);
#else
  int n = 0;
  while ((x & 1u) == 0u) {
    x >>= 1;
    ++n;
  }
  return n;
#endif
}

/// Per-ISA kernel tables, exported by their translation units. A variant
/// that was not compiled for the target architecture returns nullptr and
/// the dispatcher falls back to scalar.
const KernelOps* ScalarKernels();
const KernelOps* Sse42Kernels();  // nullptr unless built with SSE4.2.

}  // namespace simd
}  // namespace tmotif

#endif  // TMOTIF_CORE_SIMD_KERNELS_H_
