#ifndef TMOTIF_COMMON_FAULT_POINTS_H_
#define TMOTIF_COMMON_FAULT_POINTS_H_

#include <cstdint>
#include <optional>
#include <string>

// Seeded fault-injection registry. Product code marks its hard-to-reach
// failure sites (checkpoint I/O, allocation-budget trips) with a named
// *fault point* and consults the registry there; tests arm points through
// the RAII harness in src/testing/fault_injection.h to force those paths
// deterministically. The catalog of named points lives in
// docs/RESILIENCE.md.
//
// The registry is process-global and empty in production: the unarmed fast
// path is a single relaxed atomic load, so probes are safe to leave in hot
// code. Nothing in src/ (outside src/testing/) ever arms a point.

namespace tmotif {
namespace fault {

/// Deterministic behavior of one armed fault point.
struct FaultSpec {
  /// Hits that pass through unharmed before the point may fire.
  std::uint64_t skip_hits = 0;
  /// Fires allowed after that (-1 = unlimited). An exhausted point stays
  /// armed but inert, so hit accounting keeps running.
  int max_fires = 1;
  /// Opaque value handed to the consulting site when the point fires:
  /// bytes to keep for a short write, simulated pressure bytes, ...
  std::int64_t payload = 0;
  /// Probability that an eligible hit fires. Draws come from a hash of
  /// (seed, hit index), so a given spec replays identically every run.
  double probability = 1.0;
  std::uint64_t seed = 0;
};

/// Consults the named fault point at a failure site. Returns the armed
/// payload when the point fires, nullopt otherwise — including the common
/// case that nothing is armed anywhere, which costs one relaxed load.
std::optional<std::int64_t> Consume(const char* point);

/// Consume(point).has_value(), for sites that ignore the payload.
bool ShouldFail(const char* point);

/// Harness surface (used by src/testing/fault_injection.h; production code
/// never arms anything). Arming an already-armed point replaces its spec
/// and resets its counters.
void Arm(const std::string& point, const FaultSpec& spec);
void Disarm(const std::string& point);
void DisarmAll();
/// Consume() calls / fires seen by `point` since it was armed (0 when not
/// armed; counters vanish on disarm).
std::uint64_t HitCount(const std::string& point);
std::uint64_t FireCount(const std::string& point);

}  // namespace fault
}  // namespace tmotif

#endif  // TMOTIF_COMMON_FAULT_POINTS_H_
