#ifndef TMOTIF_CORE_SIMD_DISPATCH_H_
#define TMOTIF_CORE_SIMD_DISPATCH_H_

// Single-level stubs: the counting core is portable C++ with no ISA levels
// to dispatch between. Their only caller is pipebench/pipebench.cc (its
// scalar reference mode and its stamp).

namespace tmotif {
namespace simd {

enum class DispatchLevel : int { kScalar = 0 };

inline const char* DispatchLevelName(DispatchLevel) { return "scalar"; }
inline DispatchLevel ActiveDispatchLevel() { return DispatchLevel::kScalar; }
inline void SetDispatchLevelForTesting(DispatchLevel) {}
inline void ResetDispatchLevelForTesting() {}

}  // namespace simd
}  // namespace tmotif

#endif  // TMOTIF_CORE_SIMD_DISPATCH_H_
