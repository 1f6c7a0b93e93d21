// ReplStore crash-recovery tests (DESIGN.md §13.6): the length+CRC framed
// journal behind the disk-durable ReplState. The centrepiece is a property
// sweep — truncate the journal at EVERY byte offset and corrupt EVERY byte
// of its last record — proving recovery always yields exactly the state at
// the last intact record boundary, never crashes, and never applies a
// partial op. Mem and File stores replay the same bytes to the same state.
#include "bus/repl_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>
#include <unistd.h>

#include "bus/replication.hpp"
#include "pubsub/codec.hpp"
#include "pubsub/filter.hpp"

namespace amuse {
namespace {

Filter fa() { return Filter::for_type("a"); }
Filter fb() { return Filter::for_type_prefix("b."); }

// A journalled mutation history: a ReplLog attached to a MemReplStore,
// with the journal offset and canonical state captured after the baseline
// snapshot and after every subsequent op record. boundaries[i] / states[i]
// is the truth recovery must reproduce for any prefix ending there.
struct JournalHistory {
  std::shared_ptr<MemReplStore> store = std::make_shared<MemReplStore>();
  ReplLog log;
  std::vector<std::size_t> boundaries;
  std::vector<Bytes> states;  // canonical encodings, index-matched

  JournalHistory() {
    // set_epoch persists a compacting snapshot, so fix the epoch before
    // attaching the store: every boundary below stays a stable offset.
    log.set_epoch(1);
    log.set_store(store);  // baseline snapshot record
    mark();
    log.member_admitted(ServiceId(5), "sensor", "service");
    mark();
    log.sub_added(ServiceId(5), 1, fa());
    mark();
    log.member_admitted(ServiceId(6), "console", "nurse");
    mark();
    log.sub_added(ServiceId(6), 4, fb());
    mark();
    log.standby_admitted(ServiceId(9));
    mark();
    log.counters_changed(100, 7, 2);
    mark();
    (void)log.spool_append(Origin{ServiceId(0xC0), 1, 1},
                           Event("a").body());
    mark();
    log.sub_removed(ServiceId(5), 1);
    mark();
  }

  void mark() {
    boundaries.push_back(store->journal().size());
    states.push_back(log.state().encode());
  }

  // Index of the last boundary at or before `offset`, or npos when the
  // prefix does not even hold the baseline snapshot.
  [[nodiscard]] std::size_t boundary_before(std::size_t offset) const {
    std::size_t at = std::string::npos;
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
      if (boundaries[i] <= offset) at = i;
    }
    return at;
  }
};

// ---- Round trips.

TEST(ReplStore, MemRecoversJournalledState) {
  JournalHistory h;
  ReplStore::Recovery rec = h.store->recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(rec.state->encode(), h.log.state().encode());
  EXPECT_EQ(rec.records, h.boundaries.size());  // snapshot + one per op
  EXPECT_EQ(h.store->stats().recoveries, 1u);
  EXPECT_EQ(h.store->stats().torn_tails, 0u);
  EXPECT_EQ(h.store->stats().ops_appended, h.boundaries.size() - 1);
}

TEST(ReplStore, EmptyStoreRecoversNothing) {
  MemReplStore store;
  ReplStore::Recovery rec = store.recover();
  EXPECT_FALSE(rec.state.has_value());
  EXPECT_EQ(rec.records, 0u);
  EXPECT_EQ(store.stats().torn_tails, 0u);
}

// ---- The crash-recovery property sweep (satellite S3).

// Truncate the journal at every byte offset: recovery must return exactly
// the state at the last intact record boundary, flag a torn tail iff the
// cut falls mid-record, and never throw. This is the crash model — the
// process died mid-append and the tail of the last record never hit disk.
TEST(ReplStore, TruncationAtEveryByteRecoversThePrefix) {
  JournalHistory h;
  const Bytes full = h.store->journal();
  ASSERT_GT(full.size(), 0u);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<long>(cut));
    JournalReplay rep = replay_repl_journal(BytesView(prefix));

    std::size_t at = h.boundary_before(cut);
    if (at == std::string::npos) {
      // Not even the baseline snapshot survived.
      EXPECT_FALSE(rep.recovery.state.has_value()) << "cut=" << cut;
      EXPECT_EQ(rep.valid_bytes, 0u) << "cut=" << cut;
      EXPECT_EQ(rep.torn, cut != 0) << "cut=" << cut;
      continue;
    }
    EXPECT_EQ(rep.valid_bytes, h.boundaries[at]) << "cut=" << cut;
    EXPECT_EQ(rep.torn, cut != h.boundaries[at]) << "cut=" << cut;
    EXPECT_EQ(rep.recovery.records, at + 1) << "cut=" << cut;
    ASSERT_TRUE(rep.recovery.state.has_value()) << "cut=" << cut;
    EXPECT_EQ(rep.recovery.state->encode(), h.states[at]) << "cut=" << cut;
  }
}

// Corrupt every byte of the last record (each with a shifting bit flip):
// the CRC frame must reject the record — recovery falls back to the state
// one boundary earlier, truncates the journal there, and counts one torn
// tail. A flip in the length field may also masquerade as a longer/shorter
// record; either way nothing past the last intact boundary survives.
TEST(ReplStore, CorruptionOfEveryLastRecordByteIsATornTail) {
  JournalHistory h;
  const Bytes full = h.store->journal();
  const std::size_t last_start = h.boundaries[h.boundaries.size() - 2];
  const Bytes& prior_state = h.states[h.states.size() - 2];
  ASSERT_LT(last_start, full.size());

  for (std::size_t at = last_start; at < full.size(); ++at) {
    MemReplStore store;
    store.journal() = full;
    store.journal()[at] ^= static_cast<std::uint8_t>(1u << (at % 8));

    ReplStore::Recovery rec = store.recover();
    ASSERT_TRUE(rec.state.has_value()) << "corrupt@" << at;
    EXPECT_EQ(rec.state->encode(), prior_state) << "corrupt@" << at;
    EXPECT_EQ(rec.records, h.boundaries.size() - 1) << "corrupt@" << at;
    EXPECT_EQ(store.stats().torn_tails, 1u) << "corrupt@" << at;
    // recover() repaired the store in place: the tail is gone.
    EXPECT_EQ(store.journal().size(), last_start) << "corrupt@" << at;
  }
}

// An op record before any snapshot cannot apply (there is no base state):
// it is a torn tail from byte zero, not a crash.
TEST(ReplStore, OpsBeforeSnapshotAreTorn) {
  Bytes journal;
  ReplLog log;
  log.set_epoch(1);
  frame_repl_record(journal, kReplRecordOps, BytesView(log.state().encode()));
  JournalReplay rep = replay_repl_journal(BytesView(journal));
  EXPECT_TRUE(rep.torn);
  EXPECT_EQ(rep.valid_bytes, 0u);
  EXPECT_FALSE(rep.recovery.state.has_value());
}

TEST(ReplStore, UnknownRecordTypeIsTorn) {
  JournalHistory h;
  Bytes journal = h.store->journal();
  frame_repl_record(journal, 7, BytesView(h.states.back()));
  JournalReplay rep = replay_repl_journal(BytesView(journal));
  EXPECT_TRUE(rep.torn);
  EXPECT_EQ(rep.valid_bytes, h.boundaries.back());
  ASSERT_TRUE(rep.recovery.state.has_value());
  EXPECT_EQ(rep.recovery.state->encode(), h.states.back());
}

// A later snapshot record subsumes everything before it: replay restarts
// from the newest snapshot, ops after it apply on top.
TEST(ReplStore, ReplayRestartsFromTheNewestSnapshot) {
  JournalHistory h;
  ReplLog other;
  other.set_epoch(3);
  other.member_admitted(ServiceId(11), "gateway", "gateway");
  (void)other.take_update();

  Bytes journal = h.store->journal();
  frame_repl_record(journal, kReplRecordSnapshot,
                    BytesView(other.state().encode()));
  JournalReplay rep = replay_repl_journal(BytesView(journal));
  EXPECT_FALSE(rep.torn);
  ASSERT_TRUE(rep.recovery.state.has_value());
  EXPECT_EQ(rep.recovery.state->encode(), other.state().encode());
}

// ---- Compaction.

// Once wal_compact_bytes of ops accumulate, ReplLog persists a fresh
// snapshot and the store drops the op tail it subsumes: the journal stays
// bounded while recovery stays exact.
TEST(ReplStore, CompactionBoundsTheJournal) {
  ReplLog::Limits limits;
  limits.wal_compact_bytes = 256;
  ReplLog log(limits);
  auto store = std::make_shared<MemReplStore>();
  log.set_store(store);
  log.set_epoch(1);
  log.member_admitted(ServiceId(5), "sensor", "service");

  for (std::uint64_t i = 0; i < 64; ++i) {
    log.sub_added(ServiceId(5), i + 1, fa());
    log.sub_removed(ServiceId(5), i + 1);
  }
  // Far more op bytes than wal_compact_bytes were appended, so compaction
  // must have run at least once and the journal cannot have kept them all.
  EXPECT_GT(store->stats().snapshots_written, 1u);
  EXPECT_LT(store->journal().size(), 128 * limits.wal_compact_bytes);

  ReplStore::Recovery rec = store->recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(rec.state->encode(), log.state().encode());
}

// ---- FileReplStore: the same semantics on a real file.

// One file per test and process: ctest runs each test as its own process,
// in parallel, and a shared name let one test's journal clobber another's.
struct TempJournal {
  TempJournal()
      : path(::testing::TempDir() + "amuse-repl-store-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             "-" + std::to_string(::getpid()) + ".bin") {
    std::remove(path.c_str());
  }
  ~TempJournal() { std::remove(path.c_str()); }
  std::string path;
};

TEST(ReplStore, FileRoundTripMatchesMem) {
  JournalHistory h;
  TempJournal tmp;
  {
    std::ofstream f(tmp.path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(h.store->journal().data()),
            static_cast<std::streamsize>(h.store->journal().size()));
  }
  FileReplStore store(tmp.path);
  ReplStore::Recovery rec = store.recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(rec.state->encode(), h.log.state().encode());
  EXPECT_EQ(rec.records, h.boundaries.size());
  EXPECT_EQ(store.stats().torn_tails, 0u);
}

TEST(ReplStore, FileTruncatesTornTailOnDisk) {
  JournalHistory h;
  TempJournal tmp;
  const std::size_t keep = h.boundaries[h.boundaries.size() - 2] + 3;
  {
    std::ofstream f(tmp.path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(h.store->journal().data()),
            static_cast<std::streamsize>(keep));  // mid-record crash
  }
  FileReplStore store(tmp.path);
  ReplStore::Recovery rec = store.recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(rec.state->encode(), h.states[h.states.size() - 2]);
  EXPECT_EQ(store.stats().torn_tails, 1u);

  // The file itself was truncated back to the intact prefix: a second
  // recovery sees a clean journal.
  FileReplStore again(tmp.path);
  ReplStore::Recovery rec2 = again.recover();
  ASSERT_TRUE(rec2.state.has_value());
  EXPECT_EQ(rec2.state->encode(), h.states[h.states.size() - 2]);
  EXPECT_EQ(again.stats().torn_tails, 0u);
}

TEST(ReplStore, FileAppendsSurviveReopen) {
  TempJournal tmp;
  Bytes expected;
  {
    ReplLog log;
    log.set_store(std::make_shared<FileReplStore>(tmp.path));
    log.set_epoch(2);
    log.member_admitted(ServiceId(5), "sensor", "service");
    log.sub_added(ServiceId(5), 1, fa());
    log.standby_admitted(ServiceId(9));
    expected = log.state().encode();
  }  // process gone
  FileReplStore store(tmp.path);
  ReplStore::Recovery rec = store.recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(rec.state->encode(), expected);
}

// ---- Golden image: the on-disk format is fixed.

// The JournalHistory journal plus one spooled multi-attribute event, as
// written by an independent earlier implementation (byte-at-a-time CRC-32,
// map-backed Event codec). Recovery must read it back record for record,
// and the current writers must still produce it byte for byte.
constexpr const char* kGoldenJournalHex =
    "0100000020bc81c5a30000000000000001000000000000000000000000000000"
    "00000000000000000002000000186ab5089101000000000005000673656e736f"
    "72000773657276696365020000001cfdcb02a503000000000005000000000000"
    "0001000100047479706501040001610200000017ec5bd0800100000000000600"
    "07636f6e736f6c6500056e75727365020000001d12c5f7160300000000000600"
    "00000000000004000100047479706507040002622e0200000007d75f29bd0800"
    "00000000090200000011ad5831db070000006400000007000000000000000202"
    "0000003da7aa10d3050000000000c00000000000000001000000000000000100"
    "0000220000000000000000000000000000000000000000000000010004747970"
    "6504000161020000000f603f135d040000000000050000000000000001020000"
    "00821757f983050000000000c000000000000000010000000000000002000000"
    "6700000000000500000000000000030000000000000000000500036265640400"
    "03622d330002687201000000000000008e000770617469656e74040003702d37"
    "000473706f32024058600000000000000474797065040010766974616c732e68"
    "6561727472617465";

Bytes from_hex(std::string_view hex) {
  auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 |
                                            nibble(hex[i + 1])));
  }
  return out;
}

void write_file(const std::string& path, BytesView bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

void spool_vitals(JournalHistory& h) {
  Event vitals("vitals.heartrate", {{"patient", "p-7"},
                                    {"hr", 142},
                                    {"bed", "b-3"},
                                    {"spo2", 97.5}});
  vitals.set_publisher(ServiceId(5));
  vitals.set_publisher_seq(3);
  (void)h.log.spool_append(Origin{ServiceId(0xC0), 1, 2},
                           vitals.body());
  h.mark();
}

TEST(ReplStore, GoldenFileImageReadsBackRecordForRecord) {
  JournalHistory h;
  spool_vitals(h);
  const Bytes golden = from_hex(kGoldenJournalHex);
  ASSERT_EQ(golden.size(), 456u);
  EXPECT_EQ(to_hex(h.store->journal()), kGoldenJournalHex);

  TempJournal tmp;
  write_file(tmp.path, golden);
  FileReplStore store(tmp.path);
  ReplStore::Recovery rec = store.recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(rec.state->encode(), h.states.back());
  EXPECT_EQ(rec.records, h.boundaries.size());
  EXPECT_EQ(store.stats().torn_tails, 0u);

  for (std::size_t i = 0; i < h.boundaries.size(); ++i) {
    JournalReplay rep = replay_repl_journal(
        BytesView(golden.data(), h.boundaries[i]));
    EXPECT_FALSE(rep.torn) << "record " << i;
    EXPECT_EQ(rep.recovery.records, i + 1) << "record " << i;
    ASSERT_TRUE(rep.recovery.state.has_value()) << "record " << i;
    EXPECT_EQ(rep.recovery.state->encode(), h.states[i]) << "record " << i;
  }
}

TEST(ReplStore, GoldenFileImageWithFlippedLastRecordByteIsATornTail) {
  JournalHistory h;
  spool_vitals(h);
  Bytes golden = from_hex(kGoldenJournalHex);
  golden.back() ^= 0x01;  // inside the spooled event, under the record CRC

  TempJournal tmp;
  write_file(tmp.path, golden);
  FileReplStore store(tmp.path);
  ReplStore::Recovery rec = store.recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(rec.state->encode(), h.states[h.states.size() - 2]);
  EXPECT_EQ(rec.records, h.boundaries.size() - 1);
  EXPECT_EQ(store.stats().torn_tails, 1u);
}

}  // namespace
}  // namespace amuse
