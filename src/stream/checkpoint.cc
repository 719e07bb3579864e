#include "stream/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/fault_points.h"
#include "core/packed_table.h"

namespace tmotif {
namespace {

constexpr char kMagic[4] = {'T', 'M', 'C', 'K'};
// Header: magic + u32 version + u64 payload_size. Trailer: u32 crc.
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
constexpr std::size_t kTrailerSize = 4;

// --- CRC32 (IEEE, reflected, poly 0xEDB88320) over the payload. ---

std::uint32_t Crc32(const char* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- Little-endian primitives (explicit bytes: the format is a file
// format, not a memory dump). ---

void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutI32(std::string* out, std::int32_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
}

void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor over the payload. Every read reports overrun via
/// ok() instead of touching out-of-range bytes; callers check once per
/// logical section.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == size_; }

  std::uint8_t U8() {
    if (!Require(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t U32() {
    if (!Require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t U64() {
    if (!Require(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

 private:
  bool Require(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void HashU64(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFFu;
    *h *= 1099511628211ULL;
  }
}

void HashBytes(std::uint64_t* h, const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    *h ^= static_cast<unsigned char>(data[i]);
    *h *= 1099511628211ULL;
  }
}

// The stats block: a u32 field count, then one u64 per kIngestStatFields
// entry, in table order.
void SerializeStats(const IngestStats& stats, std::string* out) {
  PutU32(out, static_cast<std::uint32_t>(kIngestStatFields.size()));
  for (const IngestStatField& f : kIngestStatFields) {
    PutU64(out, stats.*f.field);
  }
}

bool DeserializeStats(Reader* r, IngestStats* stats) {
  if (r->U32() != kIngestStatFields.size()) return false;
  for (const IngestStatField& f : kIngestStatFields) {
    stats->*f.field = r->U64();
  }
  return r->ok();
}

CheckpointResult Fail(CheckpointStatus status, std::string message) {
  CheckpointResult result;
  result.status = status;
  result.message = std::move(message);
  return result;
}

}  // namespace

const char* CheckpointStatusName(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::kOk:
      return "ok";
    case CheckpointStatus::kIoError:
      return "io_error";
    case CheckpointStatus::kTruncated:
      return "truncated";
    case CheckpointStatus::kBadMagic:
      return "bad_magic";
    case CheckpointStatus::kBadVersion:
      return "bad_version";
    case CheckpointStatus::kBadChecksum:
      return "bad_checksum";
    case CheckpointStatus::kMalformed:
      return "malformed";
    case CheckpointStatus::kConfigMismatch:
      return "config_mismatch";
  }
  return "unknown";
}

std::uint64_t StreamConfigFingerprint(const StreamConfig& config) {
  std::uint64_t h = 14695981039346656037ULL;
  const char tag[] = "tmck-config-v2";
  HashBytes(&h, tag, sizeof(tag) - 1);
  const EnumerationOptions& o = config.options;
  HashU64(&h, static_cast<std::uint64_t>(o.num_events));
  HashU64(&h, static_cast<std::uint64_t>(o.max_nodes));
  HashU64(&h, o.timing.delta_c.has_value() ? 1 : 0);
  HashU64(&h, static_cast<std::uint64_t>(o.timing.delta_c.value_or(0)));
  HashU64(&h, o.timing.delta_w.has_value() ? 1 : 0);
  HashU64(&h, static_cast<std::uint64_t>(o.timing.delta_w.value_or(0)));
  HashU64(&h, o.consecutive_events_restriction ? 1 : 0);
  HashU64(&h, o.cdg_restriction ? 1 : 0);
  HashU64(&h, static_cast<std::uint64_t>(o.inducedness));
  HashU64(&h, o.duration_aware_gaps ? 1 : 0);
  HashU64(&h, static_cast<std::uint64_t>(config.window.kind));
  HashU64(&h, static_cast<std::uint64_t>(config.window.max_events));
  HashU64(&h, static_cast<std::uint64_t>(config.window.horizon));
  HashU64(&h, static_cast<std::uint64_t>(config.lateness));
  return h;
}

std::string EncodeCheckpoint(const StreamingMotifCounter& counter) {
  const StreamCheckpointState state = counter.CaptureCheckpointState();

  std::string payload;
  PutU64(&payload, StreamConfigFingerprint(counter.config()));
  PutU8(&payload, state.saw_any_event ? 1 : 0);
  PutI64(&payload, state.max_time_seen);
  PutI64(&payload, state.max_duration_seen);
  PutU64(&payload, state.window_events.size());
  for (const Event& e : state.window_events) {
    PutI32(&payload, e.src);
    PutI32(&payload, e.dst);
    PutI64(&payload, e.time);
    PutI64(&payload, e.duration);
  }
  SerializeStats(state.stats, &payload);
  PutU32(&payload, static_cast<std::uint32_t>(state.counts.size()));
  for (const auto& [packed, n] : state.counts) {
    PutU64(&payload, packed);
    PutU64(&payload, n);
  }
  PutU8(&payload, static_cast<std::uint8_t>(state.store_mode));

  std::string out;
  out.reserve(kHeaderSize + payload.size() + kTrailerSize);
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kCheckpointFormatVersion);
  PutU64(&out, payload.size());
  out.append(payload);
  PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

CheckpointResult DecodeCheckpoint(const std::string& bytes,
                                  StreamingMotifCounter* counter) {
  if (bytes.size() < kHeaderSize) {
    return Fail(CheckpointStatus::kTruncated,
                "file shorter than the checkpoint header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Fail(CheckpointStatus::kBadMagic, "not a checkpoint file");
  }
  Reader header(bytes.data() + sizeof(kMagic),
                bytes.size() - sizeof(kMagic));
  const std::uint32_t version = header.U32();
  if (version != kCheckpointFormatVersion) {
    return Fail(CheckpointStatus::kBadVersion,
                "checkpoint format version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kCheckpointFormatVersion) + ")");
  }
  const std::uint64_t payload_size = header.U64();
  if (bytes.size() < kHeaderSize + kTrailerSize ||
      payload_size > bytes.size() - kHeaderSize - kTrailerSize) {
    return Fail(CheckpointStatus::kTruncated,
                "payload extends past the end of the file (torn write)");
  }
  if (payload_size < bytes.size() - kHeaderSize - kTrailerSize) {
    return Fail(CheckpointStatus::kMalformed,
                "trailing bytes after the checkpoint trailer");
  }
  const char* payload = bytes.data() + kHeaderSize;
  Reader trailer(payload + payload_size, kTrailerSize);
  const std::uint32_t stored_crc = trailer.U32();
  const std::uint32_t actual_crc =
      Crc32(payload, static_cast<std::size_t>(payload_size));
  if (stored_crc != actual_crc) {
    return Fail(CheckpointStatus::kBadChecksum,
                "payload CRC mismatch (corrupt or torn file)");
  }

  Reader r(payload, static_cast<std::size_t>(payload_size));
  const std::uint64_t fingerprint = r.U64();
  if (!r.ok()) {
    return Fail(CheckpointStatus::kMalformed, "payload ends mid-field");
  }
  if (fingerprint != StreamConfigFingerprint(counter->config())) {
    return Fail(CheckpointStatus::kConfigMismatch,
                "checkpoint was written under a different stream "
                "configuration (options, window policy, or lateness)");
  }

  StreamCheckpointState state;
  const std::uint8_t saw = r.U8();
  if (saw > 1) {
    return Fail(CheckpointStatus::kMalformed, "invalid saw_any_event flag");
  }
  state.saw_any_event = saw == 1;
  state.max_time_seen = r.I64();
  state.max_duration_seen = r.I64();
  if (state.max_duration_seen < 0) {
    return Fail(CheckpointStatus::kMalformed, "negative max duration");
  }
  const std::uint64_t num_events = r.U64();
  if (!r.ok() || num_events > r.remaining() / 24) {
    // 24 = serialized event size; the bound rejects absurd counts before
    // any allocation.
    return Fail(CheckpointStatus::kMalformed, "event count exceeds payload");
  }
  if (!state.saw_any_event && num_events > 0) {
    return Fail(CheckpointStatus::kMalformed,
                "window events without saw_any_event");
  }
  // The window must be one the policy can leave behind: at most the
  // count-based capacity, and (below) every event inside the time-based
  // horizon of the clock.
  const WindowPolicy& policy = counter->config().window;
  if (policy.kind == WindowPolicyKind::kCountBased &&
      num_events > static_cast<std::uint64_t>(policy.max_events)) {
    return Fail(CheckpointStatus::kMalformed,
                "window holds more events than the count-based capacity");
  }
  state.window_events.reserve(static_cast<std::size_t>(num_events));
  for (std::uint64_t i = 0; i < num_events; ++i) {
    Event e;
    e.src = r.I32();
    e.dst = r.I32();
    e.time = r.I64();
    e.duration = r.I64();
    if (!r.ok()) {
      return Fail(CheckpointStatus::kMalformed, "payload ends mid-event");
    }
    if (e.src < 0 || e.dst < 0 || e.src == e.dst || e.duration < 0) {
      return Fail(CheckpointStatus::kMalformed,
                  "invalid window event (node ids, self-loop, or duration)");
    }
    if (e.duration > state.max_duration_seen) {
      // The duration-aware span bound reads max_duration_seen; a lower one
      // would cut instances out of the delta ranges.
      return Fail(CheckpointStatus::kMalformed,
                  "window event longer than max_duration_seen");
    }
    if (e.time > state.max_time_seen) {
      return Fail(CheckpointStatus::kMalformed,
                  "window event newer than max_time_seen");
    }
    if (policy.kind == WindowPolicyKind::kTimeBased &&
        e.time <= SatSub(state.max_time_seen, policy.horizon)) {
      return Fail(CheckpointStatus::kMalformed,
                  "window event outside the time-based horizon");
    }
    if (i > 0 && EventTimeLess(e, state.window_events.back())) {
      return Fail(CheckpointStatus::kMalformed,
                  "window events not canonically ordered");
    }
    state.window_events.push_back(e);
  }
  if (!DeserializeStats(&r, &state.stats)) {
    return Fail(CheckpointStatus::kMalformed, "invalid ingest-stats block");
  }
  const std::uint32_t num_counts = r.U32();
  if (!r.ok() || num_counts > r.remaining() / 16) {
    // 16 = serialized entry (u64 code + u64 count); the bound rejects absurd
    // counts before any allocation and keeps every entry read in range.
    return Fail(CheckpointStatus::kMalformed, "count entries exceed payload");
  }
  const EnumerationOptions& options = counter->config().options;
  state.counts.reserve(num_counts);
  for (std::uint32_t i = 0; i < num_counts; ++i) {
    const std::uint64_t packed = r.U64();
    const std::uint64_t n = r.U64();
    if (n == 0 || !internal::IsCountablePacked(packed, options)) {
      return Fail(CheckpointStatus::kMalformed,
                  "invalid motif-count entry (not a code this stream counts)");
    }
    if (!state.counts.empty() && packed <= state.counts.back().first) {
      return Fail(CheckpointStatus::kMalformed,
                  "motif counts not strictly ascending by code");
    }
    state.counts.emplace_back(packed, n);
  }
  const std::uint8_t mode = r.U8();
  if (mode != static_cast<std::uint8_t>(StoreMode::kFull) &&
      mode != static_cast<std::uint8_t>(StoreMode::kRecount)) {
    return Fail(CheckpointStatus::kMalformed, "invalid store mode");
  }
  state.store_mode = static_cast<StoreMode>(mode);
  if (!r.AtEnd()) {
    return Fail(CheckpointStatus::kMalformed,
                r.ok() ? "trailing bytes inside the payload"
                       : "payload ends mid-field");
  }

  std::string error;
  if (!counter->RestoreCheckpointState(state, &error)) {
    return Fail(CheckpointStatus::kMalformed, error);
  }
  return CheckpointResult{};
}

CheckpointResult WriteCheckpoint(const StreamingMotifCounter& counter,
                                 const std::string& path) {
  const std::string bytes = EncodeCheckpoint(counter);
  const std::string tmp = path + ".tmp";

  std::size_t to_write = bytes.size();
  bool injected_short_write = false;
  if (const auto keep = fault::Consume("checkpoint.short_write")) {
    to_write = std::min<std::size_t>(
        to_write,
        *keep < 0 ? 0 : static_cast<std::size_t>(*keep));
    injected_short_write = true;
  }

  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Fail(CheckpointStatus::kIoError,
                tmp + ": " + std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, to_write, f) == to_write &&
      std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return Fail(CheckpointStatus::kIoError,
                tmp + ": write failed: " + std::strerror(errno));
  }
  if (injected_short_write) {
    // The short write itself succeeded byte-for-byte, but the checkpoint on
    // disk is torn; report it like the I/O failure it simulates. The
    // temporary is deliberately left behind (as a crashed writer would).
    return Fail(CheckpointStatus::kIoError,
                tmp + ": short write (injected fault)");
  }
  if (fault::ShouldFail("checkpoint.crash_before_rename")) {
    // Simulated crash between durability and publication: the previous
    // checkpoint under `path` is still intact, the temp file is orphaned.
    return Fail(CheckpointStatus::kIoError,
                tmp + ": crash before rename (injected fault)");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved_errno = errno;
    std::remove(tmp.c_str());
    return Fail(CheckpointStatus::kIoError,
                path + ": rename failed: " + std::strerror(saved_errno));
  }
  if (fault::ShouldFail("checkpoint.crash_after_rename")) {
    // Simulated crash after publication: `path` already holds the complete
    // new checkpoint.
    return Fail(CheckpointStatus::kIoError,
                path + ": crash after rename (injected fault)");
  }
  return CheckpointResult{};
}

CheckpointResult RestoreCheckpoint(const std::string& path,
                                   StreamingMotifCounter* counter) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Fail(CheckpointStatus::kIoError,
                path + ": " + std::strerror(errno));
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Fail(CheckpointStatus::kIoError, path + ": read failed");
  }
  return DecodeCheckpoint(bytes, counter);
}

}  // namespace tmotif
