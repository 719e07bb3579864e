#ifndef TMOTIF_OBS_TRACE_H_
#define TMOTIF_OBS_TRACE_H_

// Phase tracing: RAII PhaseTimer spans that always feed a latency
// histogram and, when the process-wide TraceRecorder is enabled, also
// append chrome://tracing-compatible complete events ("ph":"X"). Load the
// dumped JSON at chrome://tracing or https://ui.perfetto.dev.
//
// Disabled-recorder cost per span: two steady_clock reads, one relaxed
// atomic load, one histogram Record.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tmotif {
namespace obs {

struct TraceEvent {
  const char* name;         // Static-lifetime phase name.
  std::uint64_t start_ns;   // Relative to the recorder's epoch.
  std::uint64_t duration_ns;
  int tid;                  // Dense per-process thread id.
};

// Process-wide span sink. Off by default; tmotif_stream --trace-out
// enables it for the run and dumps at exit. Bounded: beyond kMaxEvents
// spans are counted as dropped rather than recorded.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  void Enable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void RecordSpan(const char* name, std::uint64_t start_ns,
                  std::uint64_t duration_ns);

  // Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void WriteJson(std::ostream& out) const;

  std::uint64_t NowNs() const;

  static constexpr std::size_t kMaxEvents = 1 << 20;

 private:
  TraceRecorder() = default;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

// Times a scope, records the duration (ns) into `histogram`, and emits a
// trace span when the recorder is enabled. `name` must outlive the trace
// dump (use string literals).
class PhaseTimer {
 public:
  PhaseTimer(Histogram* histogram, const char* name)
      : histogram_(histogram),
        name_(name),
        start_(std::chrono::steady_clock::now()) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    const auto end = std::chrono::steady_clock::now();
    const std::uint64_t duration_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count());
    histogram_->Record(duration_ns);
    TraceRecorder& recorder = TraceRecorder::Global();
    if (recorder.enabled()) {
      const std::uint64_t end_ns = recorder.NowNs();
      const std::uint64_t start_ns =
          end_ns >= duration_ns ? end_ns - duration_ns : 0;
      recorder.RecordSpan(name_, start_ns, duration_ns);
    }
  }

 private:
  Histogram* histogram_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace tmotif

#endif  // TMOTIF_OBS_TRACE_H_
