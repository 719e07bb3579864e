#include "obs/trace.h"

#include <cstdio>

namespace tmotif {
namespace obs {

namespace {

int ThisThreadTraceId() {
  static std::atomic<int> next_id{0};
  thread_local const int id = next_id.fetch_add(1,
                                                std::memory_order_relaxed);
  return id;
}

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::Enable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_.load(std::memory_order_relaxed)) return;
  epoch_ = std::chrono::steady_clock::now();
  events_.reserve(4096);
  enabled_.store(true, std::memory_order_release);
}

std::uint64_t TraceRecorder::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::RecordSpan(const char* name, std::uint64_t start_ns,
                               std::uint64_t duration_ns) {
  const int tid = ThisThreadTraceId();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{name, start_ns, duration_ns, tid});
}

void TraceRecorder::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    // Chrome expects microsecond ts/dur; keep ns precision as decimals.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  i == 0 ? "" : ",", e.name, e.tid,
                  static_cast<double>(e.start_ns) / 1000.0,
                  static_cast<double>(e.duration_ns) / 1000.0);
    out << buf;
  }
  out << "]";
  if (dropped_ > 0) {
    out << ",\"tmotifDroppedEvents\":" << dropped_;
  }
  out << "}\n";
}

}  // namespace obs
}  // namespace tmotif
