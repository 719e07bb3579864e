#ifndef TMOTIF_CORE_SIMD_DISPATCH_H_
#define TMOTIF_CORE_SIMD_DISPATCH_H_

// Runtime CPU-feature dispatch for the counting kernels. The ladder is
// scalar -> SSE4.2: the SSE4.2 table is resolved exactly once per process
// when it is compiled in and the CPU supports it (CPUID probe,
// overridable by the TMOTIF_FORCE_SCALAR=1 environment knob), and every
// consumer caches the resolved table — the per-call cost of dispatch is
// one function-pointer indirection, nothing else.
//
// The resolved level is exported as the `counting.simd_dispatch_level`
// gauge (0 = scalar, 1 = SSE4.2) so deployments can tell from a metrics
// snapshot which ISA actually serves their counts.

#include <vector>

#include "core/simd/kernels.h"

namespace tmotif {
namespace simd {

enum class DispatchLevel : int {
  kScalar = 0,
  kSse42 = 1,
};

/// Short lowercase name ("scalar" / "sse4.2").
const char* DispatchLevelName(DispatchLevel level);

/// The active kernel table. First call detects the CPU (honouring
/// TMOTIF_FORCE_SCALAR) and publishes the dispatch-level gauge;
/// subsequent calls are a single atomic load.
const KernelOps& Kernels();

/// Level backing `Kernels()` right now.
DispatchLevel ActiveDispatchLevel();

/// Kernel table of a specific level; nullptr when that level is not
/// compiled in or not supported by this CPU.
const KernelOps* KernelsFor(DispatchLevel level);

/// Every level runnable on this machine, ascending (always contains
/// kScalar). The kernel differential grid iterates this.
std::vector<DispatchLevel> AvailableLevels();

/// Test hooks: pin `Kernels()` to a specific level (must be available)
/// or restore CPU detection. Not thread-safe against concurrent counts;
/// tests call them between runs only.
void SetDispatchLevelForTesting(DispatchLevel level);
void ResetDispatchLevelForTesting();

}  // namespace simd
}  // namespace tmotif

#endif  // TMOTIF_CORE_SIMD_DISPATCH_H_
