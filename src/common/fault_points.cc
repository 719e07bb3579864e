#include "common/fault_points.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

namespace tmotif {
namespace fault {
namespace {

struct PointState {
  FaultSpec spec;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, PointState> points;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;  // Leaked: outlives all probes.
  return *registry;
}

// Armed-point count, mirrored outside the mutex so the unarmed fast path
// is a single relaxed load.
std::atomic<int> g_num_armed{0};

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::optional<std::int64_t> Consume(const char* point) {
  if (g_num_armed.load(std::memory_order_relaxed) == 0) return std::nullopt;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.points.find(point);
  if (it == registry.points.end()) return std::nullopt;
  PointState& state = it->second;
  const std::uint64_t hit = state.hits++;
  if (hit < state.spec.skip_hits) return std::nullopt;
  if (state.spec.max_fires >= 0 &&
      state.fires >= static_cast<std::uint64_t>(state.spec.max_fires)) {
    return std::nullopt;
  }
  if (state.spec.probability < 1.0) {
    // Top 53 bits of the hash give a uniform draw in [0, 1).
    const double draw =
        static_cast<double>(SplitMix64(state.spec.seed ^ hit) >> 11) *
        (1.0 / 9007199254740992.0);
    if (draw >= state.spec.probability) return std::nullopt;
  }
  ++state.fires;
  return state.spec.payload;
}

bool ShouldFail(const char* point) { return Consume(point).has_value(); }

void Arm(const std::string& point, const FaultSpec& spec) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto [it, inserted] = registry.points.try_emplace(point);
  it->second = PointState{spec, 0, 0};
  if (inserted) g_num_armed.fetch_add(1, std::memory_order_relaxed);
}

void Disarm(const std::string& point) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.points.erase(point) > 0) {
    g_num_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (!registry.points.empty()) {
    g_num_armed.fetch_sub(static_cast<int>(registry.points.size()),
                          std::memory_order_relaxed);
    registry.points.clear();
  }
}

namespace {
std::uint64_t Count(const std::string& point, bool fires) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.points.find(point);
  if (it == registry.points.end()) return 0;
  return fires ? it->second.fires : it->second.hits;
}
}  // namespace

std::uint64_t HitCount(const std::string& point) {
  return Count(point, /*fires=*/false);
}

std::uint64_t FireCount(const std::string& point) {
  return Count(point, /*fires=*/true);
}

}  // namespace fault
}  // namespace tmotif
