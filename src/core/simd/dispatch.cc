#include "core/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace tmotif {
namespace simd {
namespace {

bool ForceScalarFromEnv() {
  const char* v = std::getenv("TMOTIF_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

bool CpuSupports(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case DispatchLevel::kSse42:
      return __builtin_cpu_supports("sse4.2") != 0;
#else
    case DispatchLevel::kSse42:
      return false;
#endif
  }
  return false;
}

const KernelOps* CompiledKernels(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return ScalarKernels();
    case DispatchLevel::kSse42:
      return Sse42Kernels();
  }
  return nullptr;
}

void PublishLevelGauge(DispatchLevel level) {
#ifndef TMOTIF_NO_TELEMETRY
  static obs::Gauge* const gauge =
      obs::GlobalMetrics().GetGauge("counting.simd_dispatch_level");
  gauge->Set(static_cast<std::int64_t>(level));
#else
  (void)level;
#endif
}

struct Resolved {
  const KernelOps* ops;
  DispatchLevel level;
};

/// CPU-detected default (TMOTIF_FORCE_SCALAR collapses it to scalar).
/// Detection runs once; the gauge is published as a side effect.
const Resolved& Detected() {
  static const Resolved resolved = [] {
    Resolved r{ScalarKernels(), DispatchLevel::kScalar};
    const KernelOps* sse42 = KernelsFor(DispatchLevel::kSse42);
    if (!ForceScalarFromEnv() && sse42 != nullptr) {
      r = Resolved{sse42, DispatchLevel::kSse42};
    }
    PublishLevelGauge(r.level);
    return r;
  }();
  return resolved;
}

/// Test override; nullptr when CPU detection is in charge.
std::atomic<const Resolved*> g_override{nullptr};

// Pre-sized override slots, one per level; SetDispatchLevelForTesting
// fills in the ops pointer before publishing the slot.
Resolved g_override_slots[2] = {
    {nullptr, DispatchLevel::kScalar},
    {nullptr, DispatchLevel::kSse42},
};

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kSse42:
      return "sse4.2";
  }
  return "unknown";
}

const KernelOps& Kernels() {
  const Resolved* o = g_override.load(std::memory_order_acquire);
  return o != nullptr ? *o->ops : *Detected().ops;
}

DispatchLevel ActiveDispatchLevel() {
  const Resolved* o = g_override.load(std::memory_order_acquire);
  return o != nullptr ? o->level : Detected().level;
}

const KernelOps* KernelsFor(DispatchLevel level) {
  const KernelOps* ops = CompiledKernels(level);
  return ops != nullptr && CpuSupports(level) ? ops : nullptr;
}

std::vector<DispatchLevel> AvailableLevels() {
  std::vector<DispatchLevel> levels;
  for (const DispatchLevel level :
       {DispatchLevel::kScalar, DispatchLevel::kSse42}) {
    if (KernelsFor(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

void SetDispatchLevelForTesting(DispatchLevel level) {
  const KernelOps* ops = KernelsFor(level);
  if (ops == nullptr) return;  // Unavailable: keep the current table.
  Resolved& slot = g_override_slots[static_cast<int>(level)];
  slot.ops = ops;
  g_override.store(&slot, std::memory_order_release);
  PublishLevelGauge(level);
}

void ResetDispatchLevelForTesting() {
  g_override.store(nullptr, std::memory_order_release);
  PublishLevelGauge(Detected().level);
}

}  // namespace simd
}  // namespace tmotif
