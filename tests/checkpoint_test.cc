// Checkpoint/restore tests: kill-and-restore differential replays (a
// restored counter must continue exactly like one that never stopped),
// byte-format corruption fixtures (every corruption mode maps to its own
// CheckpointStatus), and fault-injected write paths (short writes and
// crashes around the atomic rename must never leave a torn checkpoint
// under the final name).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/models/model_info.h"
#include "stream/checkpoint.h"
#include "stream/streaming_counter.h"
#include "testing/fault_injection.h"
#include "testing/random_graphs.h"

namespace tmotif {
namespace {

using testing::ForEachRandomGraph;
using testing::RandomGraphSpec;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

RandomGraphSpec CheckpointSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 24;
  spec.max_time = 60;
  spec.prob_duplicate_time = 0.3;
  return spec;
}

StreamConfig MakeConfig(const EnumerationOptions& options,
                        const WindowPolicy& policy) {
  StreamConfig config;
  config.options = options;
  config.window = policy;
  return config;
}

void IngestRange(StreamingMotifCounter* counter,
                 const std::vector<Event>& events, std::size_t begin,
                 std::size_t end, std::size_t batch_size) {
  for (std::size_t b = begin; b < end; b += batch_size) {
    const std::size_t e = std::min(end, b + batch_size);
    counter->Ingest(std::vector<Event>(
        events.begin() + static_cast<std::ptrdiff_t>(b),
        events.begin() + static_cast<std::ptrdiff_t>(e)));
  }
}

/// The kill-and-restore differential: replay continuously recording counts
/// after every batch, then for each checkpoint cut re-run to the cut,
/// round-trip through the byte format into a fresh counter, replay the
/// remainder, and demand bit-identical counts at every subsequent batch.
void KillAndRestoreCheck(const TemporalGraph& graph,
                         const EnumerationOptions& options,
                         const WindowPolicy& policy, std::size_t batch_size,
                         const std::string& label) {
  const std::vector<Event>& all = graph.events();
  const StreamConfig config = MakeConfig(options, policy);

  // Continuous reference: counts after every batch boundary.
  std::vector<std::vector<std::pair<MotifCode, std::uint64_t>>> reference;
  std::vector<std::size_t> boundaries;
  {
    StreamingMotifCounter continuous(config);
    for (std::size_t b = 0; b < all.size(); b += batch_size) {
      const std::size_t e = std::min(all.size(), b + batch_size);
      continuous.Ingest(std::vector<Event>(
          all.begin() + static_cast<std::ptrdiff_t>(b),
          all.begin() + static_cast<std::ptrdiff_t>(e)));
      reference.push_back(continuous.counts().SortedByCode());
      boundaries.push_back(e);
    }
  }

  for (const double frac : {1.0 / 3.0, 2.0 / 3.0}) {
    const std::size_t cut_batch =
        std::min(reference.size() - 1,
                 static_cast<std::size_t>(
                     static_cast<double>(reference.size()) * frac));
    const std::size_t cut = boundaries[cut_batch];

    StreamingMotifCounter writer(config);
    IngestRange(&writer, all, 0, cut, batch_size);
    ASSERT_EQ(writer.counts().SortedByCode(), reference[cut_batch]) << label;
    const std::string bytes = EncodeCheckpoint(writer);

    StreamingMotifCounter restored(config);
    const CheckpointResult decoded = DecodeCheckpoint(bytes, &restored);
    ASSERT_TRUE(decoded.ok())
        << label << ": " << CheckpointStatusName(decoded.status) << ": "
        << decoded.message;
    ASSERT_EQ(restored.counts().SortedByCode(), reference[cut_batch])
        << label;
    ASSERT_EQ(restored.window_size(), writer.window_size()) << label;
    ASSERT_EQ(restored.stats().events_ingested, cut) << label;

    std::size_t batch_i = cut_batch;
    for (std::size_t b = cut; b < all.size(); b += batch_size) {
      const std::size_t e = std::min(all.size(), b + batch_size);
      restored.Ingest(std::vector<Event>(
          all.begin() + static_cast<std::ptrdiff_t>(b),
          all.begin() + static_cast<std::ptrdiff_t>(e)));
      ++batch_i;
      ASSERT_EQ(restored.counts().SortedByCode(), reference[batch_i])
          << label << " after restore at event " << cut << ", batch ending "
          << e;
    }
  }
}

struct CheckpointCase {
  const char* name;
  EnumerationOptions options;
};

EnumerationOptions Opts(int k, int max_nodes, TimingConstraints timing = {},
                        bool consecutive = false, bool cdg = false,
                        Inducedness inducedness = Inducedness::kNone) {
  EnumerationOptions o;
  o.num_events = k;
  o.max_nodes = max_nodes;
  o.timing = timing;
  o.consecutive_events_restriction = consecutive;
  o.cdg_restriction = cdg;
  o.inducedness = inducedness;
  return o;
}

class CheckpointDifferentialTest
    : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(CheckpointDifferentialTest, RestoreEqualsContinuousCounting) {
  const CheckpointCase& c = GetParam();
  const std::vector<WindowPolicy> policies = {WindowPolicy::CountBased(10),
                                              WindowPolicy::TimeBased(20)};
  std::uint64_t base_seed = 0xc4ec;
  for (const char* p = c.name; *p != '\0'; ++p) {
    base_seed = base_seed * 131 + static_cast<std::uint64_t>(*p);
  }
  ForEachRandomGraph(
      base_seed, 3, CheckpointSpec(),
      [&](std::uint64_t seed, const TemporalGraph& g) {
        for (const WindowPolicy& policy : policies) {
          for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
            KillAndRestoreCheck(
                g, c.options, policy, batch,
                std::string(c.name) + " seed=" + std::to_string(seed) +
                    " window=" + policy.ToString() +
                    " batch=" + std::to_string(batch));
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CheckpointDifferentialTest,
    ::testing::Values(
        CheckpointCase{"kovanen",
                       OptionsForModel(ModelId::kKovanen, 3, 3, 8, 0)},
        CheckpointCase{"paranjape",
                       OptionsForModel(ModelId::kParanjape, 3, 3, 0, 12)},
        CheckpointCase{"hulovatyy",
                       OptionsForModel(ModelId::kHulovatyy, 3, 3, 8, 0)},
        CheckpointCase{"song", OptionsForModel(ModelId::kSong, 3, 3, 0, 12)},
        CheckpointCase{"static_induced",
                       Opts(3, 3, {}, false, false, Inducedness::kStatic)},
        CheckpointCase{"static_consecutive",
                       Opts(3, 3, {}, true, false, Inducedness::kStatic)},
        CheckpointCase{"cdg",
                       Opts(3, 3, TimingConstraints::OnlyDeltaC(10), false,
                            true)},
        CheckpointCase{"window_induced",
                       Opts(3, 3, TimingConstraints::OnlyDeltaW(14), false,
                            false, Inducedness::kTemporalWindow)}),
    [](const ::testing::TestParamInfo<CheckpointCase>& info) {
      return std::string(info.param.name);
    });

/// A fixed little stream every byte-level test below shares.
std::vector<Event> FixtureEvents() {
  return {
      {0, 1, 10, 0}, {1, 2, 12, 0}, {2, 0, 15, 0}, {0, 2, 18, 0},
      {2, 1, 20, 0}, {1, 0, 24, 0}, {0, 1, 27, 0}, {1, 2, 30, 0},
  };
}

StreamConfig FixtureConfig() {
  StreamConfig config;
  config.options = Opts(3, 3, TimingConstraints::OnlyDeltaW(15));
  config.window = WindowPolicy::CountBased(6);
  return config;
}


TEST(Checkpoint, FileRoundTrip) {
  const std::string path = TempPath("ckpt_roundtrip.tmck");
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  const CheckpointResult written = WriteCheckpoint(counter, path);
  ASSERT_TRUE(written.ok()) << written.message;
  EXPECT_FALSE(FileExists(path + ".tmp"));  // Temp file was renamed away.

  StreamingMotifCounter restored(FixtureConfig());
  const CheckpointResult read = RestoreCheckpoint(path, &restored);
  ASSERT_TRUE(read.ok()) << read.message;
  EXPECT_EQ(restored.counts().SortedByCode(),
            counter.counts().SortedByCode());
  EXPECT_EQ(restored.window_size(), counter.window_size());
  EXPECT_EQ(restored.max_time_seen(), counter.max_time_seen());
  EXPECT_EQ(restored.stats().events_ingested,
            counter.stats().events_ingested);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsIoError) {
  StreamingMotifCounter counter(FixtureConfig());
  const CheckpointResult read =
      RestoreCheckpoint(TempPath("ckpt_does_not_exist.tmck"), &counter);
  EXPECT_EQ(read.status, CheckpointStatus::kIoError);
  EXPECT_FALSE(read.message.empty());
}

// --- Corruption fixtures: every mode gets its own distinct status. ---

TEST(Checkpoint, TruncationsAreDetected) {
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  const std::string bytes = EncodeCheckpoint(counter);
  // Every proper prefix must decode as kTruncated — the torn-write shapes
  // a crash mid-write can leave behind.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{10}, std::size_t{15},
        bytes.size() / 2, bytes.size() - 5, bytes.size() - 1}) {
    StreamingMotifCounter fresh(FixtureConfig());
    const CheckpointResult r = DecodeCheckpoint(bytes.substr(0, keep), &fresh);
    EXPECT_EQ(r.status, CheckpointStatus::kTruncated)
        << "prefix of " << keep << " bytes: " << r.message;
  }
}

TEST(Checkpoint, BitFlipFailsTheChecksum) {
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  std::string bytes = EncodeCheckpoint(counter);
  bytes[20] = static_cast<char>(bytes[20] ^ 0x01);  // Inside the payload.
  StreamingMotifCounter fresh(FixtureConfig());
  const CheckpointResult r = DecodeCheckpoint(bytes, &fresh);
  EXPECT_EQ(r.status, CheckpointStatus::kBadChecksum) << r.message;
}

TEST(Checkpoint, StaleVersionIsRejected) {
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  std::string bytes = EncodeCheckpoint(counter);
  bytes[4] = static_cast<char>(bytes[4] + 1);  // Version u32, little-endian.
  StreamingMotifCounter fresh(FixtureConfig());
  const CheckpointResult r = DecodeCheckpoint(bytes, &fresh);
  EXPECT_EQ(r.status, CheckpointStatus::kBadVersion) << r.message;
}

TEST(Checkpoint, WrongMagicIsRejected) {
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  std::string bytes = EncodeCheckpoint(counter);
  bytes[0] = 'X';
  StreamingMotifCounter fresh(FixtureConfig());
  const CheckpointResult r = DecodeCheckpoint(bytes, &fresh);
  EXPECT_EQ(r.status, CheckpointStatus::kBadMagic) << r.message;
}

TEST(Checkpoint, TrailingGarbageIsMalformed) {
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  const std::string bytes = EncodeCheckpoint(counter) + "extra";
  StreamingMotifCounter fresh(FixtureConfig());
  const CheckpointResult r = DecodeCheckpoint(bytes, &fresh);
  EXPECT_EQ(r.status, CheckpointStatus::kMalformed) << r.message;
}

TEST(Checkpoint, DifferentConfigIsRejected) {
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  const std::string bytes = EncodeCheckpoint(counter);

  StreamConfig other = FixtureConfig();
  other.options.num_events = 4;
  other.options.max_nodes = 4;
  StreamingMotifCounter fresh(other);
  const CheckpointResult r = DecodeCheckpoint(bytes, &fresh);
  EXPECT_EQ(r.status, CheckpointStatus::kConfigMismatch) << r.message;
}

TEST(Checkpoint, OperationalKnobsDoNotChangeTheFingerprint) {
  StreamConfig a = FixtureConfig();
  StreamConfig b = FixtureConfig();
  b.num_threads = 7;
  b.store_budget_bytes = 12345;
  EXPECT_EQ(StreamConfigFingerprint(a), StreamConfigFingerprint(b));

  StreamConfig c = FixtureConfig();
  c.options.timing.delta_w = 16;
  EXPECT_NE(StreamConfigFingerprint(a), StreamConfigFingerprint(c));
  StreamConfig d = FixtureConfig();
  d.lateness = 10;
  EXPECT_NE(StreamConfigFingerprint(a), StreamConfigFingerprint(d));
  StreamConfig e = FixtureConfig();
  e.window = WindowPolicy::TimeBased(600);
  EXPECT_NE(StreamConfigFingerprint(a), StreamConfigFingerprint(e));
}

// --- Crafted CRC-valid fixtures: structural checks behind the checksum. ---

// Byte layout of a version-7 file (docs/RESILIENCE.md): a 16-byte header
// (magic, u32 version, u64 payload size), the payload, a u32 CRC trailer.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kCrcBytes = 4;

/// Bitwise reference CRC-32 (IEEE, reflected, poly 0xEDB88320) —
/// independent of the table-driven one the codec uses.
std::uint32_t ReferenceCrc32(const std::string& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

void PutU32At(std::string* bytes, std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

void PutU64At(std::string* bytes, std::size_t offset, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

std::uint32_t GetU32At(const std::string& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

/// Recomputes the trailer over the (edited) payload, so a crafted file gets
/// past kBadChecksum to the structural checks.
void FixUpCrc(std::string* bytes) {
  const std::size_t payload_end = bytes->size() - kCrcBytes;
  PutU32At(bytes, payload_end,
           ReferenceCrc32(
               bytes->substr(kHeaderBytes, payload_end - kHeaderBytes)));
}

/// Offset of the u32 count-entry field: fingerprint, saw_any_event,
/// max_time_seen, max_duration_seen, event count, 24-byte events, then the
/// stats block (u32 field count + 18 u64 fields).
std::size_t CountsFieldOffset(std::size_t num_window_events) {
  return kHeaderBytes + 8 + 1 + 8 + 8 + 8 + 24 * num_window_events + 4 +
         8 * 18;
}

/// Offset of count entry `i` (u64 packed code, u64 count; 16 bytes each).
std::size_t CountEntryOffset(std::size_t num_window_events, std::size_t i) {
  return CountsFieldOffset(num_window_events) + 4 + 16 * i;
}

/// Offset of the store-mode byte: the last payload byte, before the CRC
/// trailer.
std::size_t StoreModeOffset(const std::string& bytes) {
  return bytes.size() - kCrcBytes - 1;
}

/// An encoding whose layout the helpers above are checked against.
std::string CraftableEncoding(StreamingMotifCounter* counter) {
  counter->Ingest(FixtureEvents());
  std::string bytes = EncodeCheckpoint(*counter);
  std::string refixed = bytes;
  FixUpCrc(&refixed);
  EXPECT_EQ(refixed, bytes) << "reference CRC disagrees with the codec";
  EXPECT_EQ(GetU32At(bytes, CountsFieldOffset(counter->window_size())),
            counter->counts().num_codes())
      << "count-entry field not where the layout says";
  EXPECT_EQ(CountEntryOffset(counter->window_size(),
                             counter->counts().num_codes()),
            StoreModeOffset(bytes))
      << "count entries are not 16 bytes each";
  EXPECT_EQ(bytes[StoreModeOffset(bytes)], 0) << "store-mode byte misplaced";
  return bytes;
}

// The count-entry field is bounded by the 16-byte entry size before the
// decoder reserves for it (reserving first lets a CRC-valid 0xFFFFFFFF
// throw std::bad_alloc, which aborts a restore). One entry more than the
// remaining payload can hold is rejected by that bound, not by a later
// overrun.
TEST(Checkpoint, CraftedHugeCountEntryFieldIsMalformed) {
  StreamingMotifCounter counter(FixtureConfig());
  std::string bytes = CraftableEncoding(&counter);
  const std::size_t field = CountsFieldOffset(counter.window_size());
  const std::size_t remaining = bytes.size() - kCrcBytes - (field + 4);
  for (const std::uint32_t entries :
       {static_cast<std::uint32_t>(remaining / 16 + 1), 0xFFFFFFFFu}) {
    std::string crafted = bytes;
    PutU32At(&crafted, field, entries);
    FixUpCrc(&crafted);
    StreamingMotifCounter fresh(FixtureConfig());
    const CheckpointResult r = DecodeCheckpoint(crafted, &fresh);
    EXPECT_EQ(r.status, CheckpointStatus::kMalformed) << r.message;
    EXPECT_NE(r.message.find("exceed payload"), std::string::npos)
        << entries << " entries: " << r.message;
  }
}

// CRC-valid count entries the stream cannot count are malformed even on
// the store-free path, which has no recount to cross-check them against.
// Each crafted code sorts where the entry it replaces sat, so only the
// shape checks can reject it.
TEST(Checkpoint, CraftedUncountableCodesAreMalformed) {
  StreamingMotifCounter counter(FixtureConfig());  // k = 3, max_nodes = 3.
  const std::string bytes = CraftableEncoding(&counter);
  ASSERT_GE(counter.counts().num_codes(), 2u);
  const std::size_t last = counter.counts().num_codes() - 1;
  struct Crafted {
    const char* what;
    std::size_t entry;
    std::uint64_t packed;
  };
  const Crafted kCrafted[] = {
      // Spells "010001": a self-loop pair, not a canonical code.
      {"non-canonical", 0, 0x010001},
      // The canonical one-event code "01" in a three-event stream.
      {"wrong length", 0, 0x01},
      // The canonical "011223": four nodes against max_nodes = 3.
      {"too many nodes", last, 0x231201},
  };
  for (const Crafted& c : kCrafted) {
    std::string crafted = bytes;
    const std::size_t offset = CountEntryOffset(counter.window_size(), c.entry);
    PutU64At(&crafted, offset, c.packed);
    PutU64At(&crafted, offset + 8, 5);
    FixUpCrc(&crafted);
    StreamingMotifCounter fresh(FixtureConfig());
    const CheckpointResult r = DecodeCheckpoint(crafted, &fresh);
    EXPECT_EQ(r.status, CheckpointStatus::kMalformed) << c.what;
  }
}

// A store-off checkpoint restored without a budget turns the store on, so
// its counts are cross-checked against the rebuilt store like any store-on
// restore: a count the window does not hold is malformed.
TEST(Checkpoint, CraftedStoreOffCountsAreCheckedWithoutABudget) {
  StreamConfig config;
  config.options = Opts(3, 3, {}, false, false, Inducedness::kStatic);
  config.window = WindowPolicy::CountBased(12);
  config.store_budget_bytes = 1;  // Impossible budget: degrade immediately.
  StreamingMotifCounter counter(config);
  counter.Ingest(FixtureEvents());
  ASSERT_EQ(counter.store_mode(), StoreMode::kRecount);
  ASSERT_GE(counter.counts().num_codes(), 1u);
  std::string bytes = EncodeCheckpoint(counter);
  PutU64At(&bytes, CountEntryOffset(counter.window_size(), 0) + 8,
           std::uint64_t{1} << 40);
  FixUpCrc(&bytes);

  config.store_budget_bytes = 0;
  StreamingMotifCounter unbudgeted(config);
  const CheckpointResult r = DecodeCheckpoint(bytes, &unbudgeted);
  EXPECT_EQ(r.status, CheckpointStatus::kMalformed) << r.message;
}

// Only store-mode bytes 0 (store on) and 2 (store off) decode; 1 (a v2
// counted-only state) is not a state.
TEST(Checkpoint, CraftedCountedOnlyStoreModeIsMalformed) {
  StreamingMotifCounter counter(FixtureConfig());
  std::string bytes = CraftableEncoding(&counter);
  bytes[StoreModeOffset(bytes)] = 1;
  FixUpCrc(&bytes);
  StreamingMotifCounter fresh(FixtureConfig());
  const CheckpointResult r = DecodeCheckpoint(bytes, &fresh);
  EXPECT_EQ(r.status, CheckpointStatus::kMalformed) << r.message;
}

// The window must be one the reader's policy can leave behind. Each file
// is written under a wider policy and given the reader's fingerprint, so
// only the policy checks can reject it: 8 events against a count-based
// capacity of 4, and events at t = 10 and 60 under a 20 s horizon at
// clock 100.
TEST(Checkpoint, CraftedWindowOutsideThePolicyIsMalformed) {
  struct Crafted {
    const char* what;
    WindowPolicy written;
    WindowPolicy read;
    std::vector<Event> events;
  };
  const Crafted kCrafted[] = {
      {"count-based", WindowPolicy::CountBased(8), WindowPolicy::CountBased(4),
       FixtureEvents()},
      {"time-based", WindowPolicy::TimeBased(200), WindowPolicy::TimeBased(20),
       {{0, 1, 10, 0}, {1, 2, 60, 0}, {2, 0, 100, 0}}},
  };
  for (const Crafted& c : kCrafted) {
    StreamConfig written = FixtureConfig();
    written.window = c.written;
    StreamConfig read = FixtureConfig();
    read.window = c.read;
    StreamingMotifCounter writer(written);
    writer.Ingest(c.events);
    ASSERT_EQ(writer.window_size(), c.events.size()) << c.what;
    std::string bytes = EncodeCheckpoint(writer);
    // The config fingerprint is the payload's first field.
    PutU64At(&bytes, kHeaderBytes, StreamConfigFingerprint(read));
    FixUpCrc(&bytes);
    StreamingMotifCounter reader(read);
    const CheckpointResult r = DecodeCheckpoint(bytes, &reader);
    EXPECT_EQ(r.status, CheckpointStatus::kMalformed)
        << c.what << ": " << r.message;
  }
}

// max_duration_seen bounds every window event's duration: the
// duration-aware span bound reads it, and a lower value cuts instances out
// of the delta ranges, so a file that lowers it below a window event's
// duration is malformed.
TEST(Checkpoint, CraftedDurationBoundBelowAWindowEventIsMalformed) {
  std::vector<Event> events = FixtureEvents();
  events.back().duration = 15;
  StreamingMotifCounter writer(FixtureConfig());
  writer.Ingest(events);
  std::string bytes = EncodeCheckpoint(writer);
  // max_duration_seen follows the fingerprint, saw_any_event and
  // max_time_seen.
  PutU64At(&bytes, kHeaderBytes + 8 + 1 + 8, 14);
  FixUpCrc(&bytes);
  StreamingMotifCounter reader(FixtureConfig());
  const CheckpointResult r = DecodeCheckpoint(bytes, &reader);
  EXPECT_EQ(r.status, CheckpointStatus::kMalformed) << r.message;
}

// Version-2 files (with the counted-only fields), version-3 files (with
// string-keyed count entries), version-4 files (with 22 stat fields),
// version-5 files (with the store's re-promotion state and 19 stat fields)
// and version-6 files (with 28-byte labelled events) are rejected
// outright, not migrated.
TEST(Checkpoint, VersionTwoFilesAreBadVersion) {
  StreamingMotifCounter counter(FixtureConfig());
  const std::string bytes = CraftableEncoding(&counter);
  for (const std::uint32_t version : {2u, 3u, 4u, 5u, 6u}) {
    std::string crafted = bytes;
    PutU32At(&crafted, 4, version);  // The version field follows the magic.
    FixUpCrc(&crafted);
    StreamingMotifCounter fresh(FixtureConfig());
    const CheckpointResult r = DecodeCheckpoint(crafted, &fresh);
    EXPECT_EQ(r.status, CheckpointStatus::kBadVersion)
        << "version " << version << ": " << r.message;
  }
}

// --- Fault-injected write paths. ---

TEST(Checkpoint, ShortWriteFailsAndNeverTearsTheFinalFile) {
  testing::FaultInjectionGuard guard;
  const std::string path = TempPath("ckpt_short.tmck");
  std::remove(path.c_str());
  StreamingMotifCounter counter(FixtureConfig());
  counter.Ingest(FixtureEvents());
  {
    testing::ScopedFault fault("checkpoint.short_write",
                               testing::FailOnce(/*payload=*/10));
    const CheckpointResult written = WriteCheckpoint(counter, path);
    EXPECT_EQ(written.status, CheckpointStatus::kIoError) << written.message;
    EXPECT_EQ(fault.fires(), 1u);
  }
  // The torn bytes stayed under the temp name; the final name was never
  // created.
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".tmp"));
  // And the torn temp file is unrestorable, loudly.
  StreamingMotifCounter fresh(FixtureConfig());
  const CheckpointResult read = RestoreCheckpoint(path + ".tmp", &fresh);
  EXPECT_EQ(read.status, CheckpointStatus::kTruncated) << read.message;
  std::remove((path + ".tmp").c_str());
}

TEST(Checkpoint, CrashBeforeRenameKeepsThePreviousCheckpoint) {
  testing::FaultInjectionGuard guard;
  const std::string path = TempPath("ckpt_crash_before.tmck");
  StreamConfig config = FixtureConfig();
  StreamingMotifCounter counter(config);
  const std::vector<Event> all = FixtureEvents();

  counter.Ingest(std::vector<Event>(all.begin(), all.begin() + 4));
  ASSERT_TRUE(WriteCheckpoint(counter, path).ok());
  const auto old_counts = counter.counts().SortedByCode();

  counter.Ingest(std::vector<Event>(all.begin() + 4, all.end()));
  {
    testing::ScopedFault fault("checkpoint.crash_before_rename",
                               testing::FailOnce());
    const CheckpointResult written = WriteCheckpoint(counter, path);
    EXPECT_EQ(written.status, CheckpointStatus::kIoError) << written.message;
  }
  // The new bytes are stranded under the temp name; the published
  // checkpoint still restores the OLD state.
  EXPECT_TRUE(FileExists(path + ".tmp"));
  StreamingMotifCounter restored(config);
  ASSERT_TRUE(RestoreCheckpoint(path, &restored).ok());
  EXPECT_EQ(restored.counts().SortedByCode(), old_counts);
  EXPECT_EQ(restored.stats().events_ingested, 4u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Checkpoint, CrashAfterRenamePublishedTheNewCheckpoint) {
  testing::FaultInjectionGuard guard;
  const std::string path = TempPath("ckpt_crash_after.tmck");
  StreamConfig config = FixtureConfig();
  StreamingMotifCounter counter(config);
  const std::vector<Event> all = FixtureEvents();
  counter.Ingest(all);
  {
    testing::ScopedFault fault("checkpoint.crash_after_rename",
                               testing::FailOnce());
    const CheckpointResult written = WriteCheckpoint(counter, path);
    EXPECT_EQ(written.status, CheckpointStatus::kIoError) << written.message;
  }
  // The rename happened before the simulated crash: the full new state is
  // already durable under the final name.
  StreamingMotifCounter restored(config);
  ASSERT_TRUE(RestoreCheckpoint(path, &restored).ok());
  EXPECT_EQ(restored.counts().SortedByCode(), counter.counts().SortedByCode());
  std::remove(path.c_str());
}

// The operational loop under injected faults: periodic checkpoints where
// one write dies mid-stream. The previous checkpoint must survive, and a
// kill-and-restore from whatever the file holds must still converge to the
// continuous counts.
TEST(Checkpoint, PeriodicCheckpointsSurviveAnInjectedFailure) {
  testing::FaultInjectionGuard guard;
  const std::string path = TempPath("ckpt_periodic.tmck");
  std::remove(path.c_str());
  StreamConfig config = FixtureConfig();
  const std::vector<Event> all = FixtureEvents();
  const std::size_t batch_size = 2;

  StreamingMotifCounter continuous(config);
  IngestRange(&continuous, all, 0, all.size(), batch_size);

  // Replay with a checkpoint after every batch; the second write dies.
  testing::ScopedFault fault("checkpoint.short_write",
                             testing::FailNth(2, /*payload=*/7));
  StreamingMotifCounter writer(config);
  int failures = 0;
  for (std::size_t b = 0; b < all.size(); b += batch_size) {
    const std::size_t e = std::min(all.size(), b + batch_size);
    writer.Ingest(std::vector<Event>(
        all.begin() + static_cast<std::ptrdiff_t>(b),
        all.begin() + static_cast<std::ptrdiff_t>(e)));
    if (!WriteCheckpoint(writer, path).ok()) ++failures;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(fault.fires(), 1u);

  // The file holds the last successful checkpoint; restoring and replaying
  // the un-checkpointed suffix reproduces the continuous counts.
  StreamingMotifCounter restored(config);
  ASSERT_TRUE(RestoreCheckpoint(path, &restored).ok());
  const std::size_t resume =
      static_cast<std::size_t>(restored.stats().events_ingested);
  ASSERT_LE(resume, all.size());
  IngestRange(&restored, all, resume, all.size(), batch_size);
  EXPECT_EQ(restored.counts().SortedByCode(),
            continuous.counts().SortedByCode());
  std::remove(path.c_str());
}

// A counter checkpointed with the store off restores with the store off and
// the same counts, and keeps counting exactly (the reader has a budget too).
TEST(Checkpoint, DegradedStoreModeRoundTrips) {
  StreamConfig config;
  config.options = Opts(3, 3, {}, false, false, Inducedness::kStatic);
  config.window = WindowPolicy::CountBased(12);
  config.store_budget_bytes = 1;  // Impossible budget: degrade immediately.

  const std::vector<Event> all = FixtureEvents();
  StreamingMotifCounter counter(config);
  counter.Ingest(std::vector<Event>(all.begin(), all.begin() + 6));
  ASSERT_EQ(counter.store_mode(), StoreMode::kRecount);

  const std::string bytes = EncodeCheckpoint(counter);
  StreamingMotifCounter restored(config);
  const CheckpointResult r = DecodeCheckpoint(bytes, &restored);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(restored.store_mode(), counter.store_mode());
  EXPECT_EQ(restored.counts().SortedByCode(), counter.counts().SortedByCode());

  StreamingMotifCounter continuous(config);
  continuous.Ingest(std::vector<Event>(all.begin(), all.begin() + 6));
  restored.Ingest(std::vector<Event>(all.begin() + 6, all.end()));
  continuous.Ingest(std::vector<Event>(all.begin() + 6, all.end()));
  EXPECT_EQ(restored.counts().SortedByCode(),
            continuous.counts().SortedByCode());
}

// The budget is not part of the fingerprint, and only a budget turns the
// store off: a store-off checkpoint restored without one comes back with
// the store on and then streams like a counter that never had a budget,
// absorbing flips in the store instead of recounting.
TEST(Checkpoint, DegradedCheckpointRestoresStoreOnWithoutABudget) {
  StreamConfig budgeted;
  budgeted.options = Opts(3, 3, {}, false, false, Inducedness::kStatic);
  budgeted.window = WindowPolicy::CountBased(4);
  budgeted.store_budget_bytes = 1;  // Impossible budget: degrade immediately.
  StreamConfig unbudgeted = budgeted;
  unbudgeted.store_budget_bytes = 0;

  const std::vector<Event> all = FixtureEvents();
  const std::vector<Event> head(all.begin(), all.begin() + 4);
  StreamingMotifCounter writer(budgeted);
  writer.Ingest(head);
  ASSERT_EQ(writer.store_mode(), StoreMode::kRecount);

  StreamingMotifCounter restored(unbudgeted);
  const CheckpointResult r =
      DecodeCheckpoint(EncodeCheckpoint(writer), &restored);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(restored.store_mode(), StoreMode::kFull);
  EXPECT_EQ(restored.counts().SortedByCode(), writer.counts().SortedByCode());

  StreamingMotifCounter fresh(unbudgeted);
  fresh.Ingest(head);
  const IngestStats restored_at_cut = restored.stats();
  const IngestStats fresh_at_cut = fresh.stats();
  for (std::size_t i = 4; i < all.size(); ++i) {
    restored.Ingest({all[i]});
    fresh.Ingest({all[i]});
  }
  EXPECT_EQ(restored.store_mode(), StoreMode::kFull);
  EXPECT_EQ(restored.counts().SortedByCode(), fresh.counts().SortedByCode());
  EXPECT_GT(fresh.stats().store_flip_batches, fresh_at_cut.store_flip_batches);
  EXPECT_EQ(restored.stats().store_flip_batches -
                restored_at_cut.store_flip_batches,
            fresh.stats().store_flip_batches - fresh_at_cut.store_flip_batches);
  EXPECT_EQ(restored.stats().full_recounts - restored_at_cut.full_recounts,
            fresh.stats().full_recounts - fresh_at_cut.full_recounts);
  EXPECT_EQ(restored.stats().static_fallbacks -
                restored_at_cut.static_fallbacks,
            fresh.stats().static_fallbacks - fresh_at_cut.static_fallbacks);
}

}  // namespace
}  // namespace tmotif
