// SSE4.2 variants of the counting kernels. The whole translation unit is
// compiled with -msse4.2 (CMake sets the flag on this file only) and
// self-gates on the predefined macro, so on targets without SSE4.2 it
// collapses to a stub and the dispatcher falls back to scalar. No code
// here may be called before the runtime CPU check in core/simd/dispatch.cc
// has confirmed the ISA.

#include "core/simd/kernels.h"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <emmintrin.h>
#include <nmmintrin.h>
#include <smmintrin.h>

namespace tmotif {
namespace simd {
namespace {

std::uint32_t MatchTagsSse42(const std::uint8_t* group, std::uint8_t tag) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  const __m128i t = _mm_set1_epi8(static_cast<char>(tag));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(g, t)));
}

std::uint32_t MatchEmptySse42(const std::uint8_t* group) {
  return MatchTagsSse42(group, kEmptyCtrl);
}

/// Byte-equality matrix trick shared by the scan kernels: OR-accumulate
/// equality of `v` against itself shifted left by 1..k-1 bytes, so the
/// accumulator's byte j is 0xFF iff v's byte j equals some earlier byte
/// j-i. Zero bytes shifted in at the bottom never match — code bytes are
/// non-zero by construction (core/enumerate_core.h PackPair). The shift
/// amounts must be immediates, hence the unrolled fallthrough switches.

int DistinctPairCountSse42(std::uint64_t packed, int k) {
  const __m128i v = _mm_cvtsi64_si128(static_cast<long long>(packed));
  __m128i dup = _mm_setzero_si128();
  switch (k) {
    case 8: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_si128(v, 7))); [[fallthrough]];
    case 7: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_si128(v, 6))); [[fallthrough]];
    case 6: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_si128(v, 5))); [[fallthrough]];
    case 5: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_si128(v, 4))); [[fallthrough]];
    case 4: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_si128(v, 3))); [[fallthrough]];
    case 3: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_si128(v, 2))); [[fallthrough]];
    case 2: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_si128(v, 1))); [[fallthrough]];
    default: break;
  }
  const unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(dup)) &
                        ((1u << k) - 1u);
  return k - __builtin_popcount(mask);
}

void PrefilterCodesSse42(const std::uint64_t* codes, int n, int k, int want,
                         std::uint8_t* out_pass) {
  // Shifted-in zeros can alias the zero padding bytes above byte k-1, so
  // those lanes are masked out before counting.
  const __m128i lane_mask = _mm_set1_epi64x(
      k >= 8 ? -1LL
             : static_cast<long long>((std::uint64_t{1} << (8 * k)) - 1));
  const __m128i wantv = _mm_set1_epi64x(static_cast<long long>(k - want));
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi8(1);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    // Per-64-bit-lane byte shifts: each lane holds one code, so
    // duplicates are detected for two codes at once.
    __m128i dup = zero;
    switch (k) {
      case 8: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_epi64(v, 56))); [[fallthrough]];
      case 7: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_epi64(v, 48))); [[fallthrough]];
      case 6: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_epi64(v, 40))); [[fallthrough]];
      case 5: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_epi64(v, 32))); [[fallthrough]];
      case 4: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_epi64(v, 24))); [[fallthrough]];
      case 3: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_epi64(v, 16))); [[fallthrough]];
      case 2: dup = _mm_or_si128(dup, _mm_cmpeq_epi8(v, _mm_slli_epi64(v, 8))); [[fallthrough]];
      default: break;
    }
    dup = _mm_and_si128(dup, lane_mask);
    // Duplicate-byte count per lane: SAD against zero sums the 0/1 bytes
    // into each lane's low 16 bits. distinct == want <=> dups == k - want.
    const __m128i dups = _mm_sad_epu8(_mm_and_si128(dup, one), zero);
    const __m128i eq = _mm_cmpeq_epi64(dups, wantv);
    out_pass[i] = static_cast<std::uint8_t>(_mm_extract_epi8(eq, 0) & 1);
    out_pass[i + 1] = static_cast<std::uint8_t>(_mm_extract_epi8(eq, 8) & 1);
  }
  for (; i < n; ++i) {
    out_pass[i] = DistinctPairCountSse42(codes[i], k) == want ? 1 : 0;
  }
}

constexpr KernelOps kSse42Ops = {
    &MatchTagsSse42,
    &MatchEmptySse42,
    &DistinctPairCountSse42,
    &PrefilterCodesSse42,
};

}  // namespace

const KernelOps* Sse42Kernels() { return &kSse42Ops; }

}  // namespace simd
}  // namespace tmotif

#else  // !(__SSE4_2__ && __x86_64__)

namespace tmotif {
namespace simd {

const KernelOps* Sse42Kernels() { return nullptr; }

}  // namespace simd
}  // namespace tmotif

#endif
