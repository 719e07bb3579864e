#ifndef TMOTIF_STREAM_CHECKPOINT_H_
#define TMOTIF_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "stream/streaming_counter.h"

// Durable checkpoint/restore for StreamingMotifCounter.
//
// A checkpoint is a single self-describing binary file:
//
//   "TMCK" | u32 version | u64 payload_size | payload | u32 crc32(payload)
//
// all little-endian. The payload serializes StreamCheckpointState plus a
// fingerprint of the counter configuration (so a checkpoint cannot be
// restored into a counter that counts something else). The live window
// indices and the instance store are NOT serialized — both are regenerated
// from the window events on restore, and the regenerated counted set is
// cross-checked against the checkpointed counts. The full layout is
// documented in docs/RESILIENCE.md.
//
// Writes are atomic: the encoding goes to `path + ".tmp"`, is flushed and
// fsync'd, then renamed over `path`. A crash at any point leaves either the
// previous checkpoint intact or the new one complete — never a torn file
// under the final name. The I/O path carries the fault points
// `checkpoint.short_write`, `checkpoint.crash_before_rename`, and
// `checkpoint.crash_after_rename` (src/common/fault_points.h).

namespace tmotif {

/// Distinct failure classes of checkpoint encode/decode and file I/O, so
/// callers and tests can tell corruption modes apart.
enum class CheckpointStatus {
  kOk = 0,
  /// open/read/write/rename/fsync failed (or a fault point forced it).
  kIoError,
  /// The file ends before the declared structure does (torn write).
  kTruncated,
  /// The leading magic is not "TMCK" — not a checkpoint file.
  kBadMagic,
  /// A version this build does not read (kCheckpointFormatVersion).
  kBadVersion,
  /// The payload CRC32 does not match (bit rot / partial overwrite).
  kBadChecksum,
  /// The payload is structurally invalid despite a matching CRC.
  kMalformed,
  /// The checkpoint was written under an incompatible StreamConfig.
  kConfigMismatch,
};

/// Stable lowercase name of a status ("ok", "io_error", ...).
const char* CheckpointStatusName(CheckpointStatus status);

struct CheckpointResult {
  CheckpointStatus status = CheckpointStatus::kOk;
  /// Human-readable detail for failures (empty on success).
  std::string message;

  bool ok() const { return status == CheckpointStatus::kOk; }
};

/// Current checkpoint format version (bumped on layout changes; decoders
/// reject other versions with kBadVersion).
inline constexpr std::uint32_t kCheckpointFormatVersion = 7;

/// FNV-1a fingerprint of the parts of `config` that define *what* is being
/// counted: enumeration options, window policy, and lateness horizon.
/// Operational knobs (threads, memory budget) are deliberately excluded —
/// they may change across a restart without invalidating the state.
std::uint64_t StreamConfigFingerprint(const StreamConfig& config);

/// Serializes the counter's current state (CaptureCheckpointState) to the
/// checkpoint byte format. Call only between batches.
std::string EncodeCheckpoint(const StreamingMotifCounter& counter);

/// Validates `bytes` and restores the state into `counter`, which must be
/// freshly constructed (or otherwise disposable: on failure its state is
/// unspecified and it should be discarded).
CheckpointResult DecodeCheckpoint(const std::string& bytes,
                                  StreamingMotifCounter* counter);

/// Encodes and durably writes a checkpoint to `path` via the atomic
/// write-to-temp / fsync / rename protocol described above.
CheckpointResult WriteCheckpoint(const StreamingMotifCounter& counter,
                                 const std::string& path);

/// Reads `path` and restores it into `counter` (same contract as
/// DecodeCheckpoint).
CheckpointResult RestoreCheckpoint(const std::string& path,
                                   StreamingMotifCounter* counter);

}  // namespace tmotif

#endif  // TMOTIF_STREAM_CHECKPOINT_H_
