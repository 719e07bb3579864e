// Scalar reference implementations of the counting kernels — always
// compiled, selected on machines without SSE4.2 or when
// TMOTIF_FORCE_SCALAR=1. The SSE4.2 variants must match these
// bit-for-bit (masks, verdicts); the differential grid in
// tests/kernel_diff_test.cc enforces it.

#include "core/simd/kernels.h"

namespace tmotif {
namespace simd {
namespace {

std::uint32_t MatchTagsScalar(const std::uint8_t* group, std::uint8_t tag) {
  std::uint32_t mask = 0;
  for (int i = 0; i < kGroupSize; ++i) {
    mask |= group[i] == tag ? (1u << i) : 0u;
  }
  return mask;
}

std::uint32_t MatchEmptyScalar(const std::uint8_t* group) {
  return MatchTagsScalar(group, kEmptyCtrl);
}

int DistinctPairCountScalar(std::uint64_t packed, int k) {
  int distinct = 0;
  for (int i = 0; i < k; ++i) {
    const std::uint64_t byte = (packed >> (8 * i)) & 0xFF;
    bool dup = false;
    for (int j = 0; j < i; ++j) {
      if (((packed >> (8 * j)) & 0xFF) == byte) {
        dup = true;
        break;
      }
    }
    if (!dup) ++distinct;
  }
  return distinct;
}

void PrefilterCodesScalar(const std::uint64_t* codes, int n, int k, int want,
                          std::uint8_t* out_pass) {
  for (int i = 0; i < n; ++i) {
    out_pass[i] = DistinctPairCountScalar(codes[i], k) == want ? 1 : 0;
  }
}

constexpr KernelOps kScalarOps = {
    &MatchTagsScalar,
    &MatchEmptyScalar,
    &DistinctPairCountScalar,
    &PrefilterCodesScalar,
};

}  // namespace

const KernelOps* ScalarKernels() { return &kScalarOps; }

}  // namespace simd
}  // namespace tmotif
