// Disk-durable ReplState (DESIGN.md §13.6): the write-ahead persistence hook
// behind the warm-standby replication log. The active core journals every
// repl op through a ReplStore as it commits it to the in-memory stream, so a
// full-cell kill-and-restart recovers membership, durable subscriptions and
// the re-delivery spool — the disk is just another mirror, one flush behind
// at most.
//
// On-disk format (FileReplStore): a flat journal of length+CRC framed
// records,
//
//   u8  type     (1 = snapshot: encoded ReplState; 2 = ops: one repl op)
//   u32 length   (payload bytes, big-endian)
//   u32 crc32    (over the payload)
//   ...payload
//
// Recovery walks the journal from the front, replaying the last snapshot and
// every op after it. The first malformed record — short header, impossible
// length, CRC mismatch, or an op that does not apply — is a torn tail: the
// file is truncated at that offset and everything before it is the recovered
// prefix. Because each record holds exactly one op, recovery can never apply
// a partial op.
//
// Compaction: `snapshot()` rewrites the journal as a single snapshot record
// (tmp file + atomic rename), discarding the op tail it subsumes. ReplLog
// triggers it every `Limits::wal_compact_bytes` of journalled ops.
//
// MemReplStore is the deterministic in-memory fake for sim/torture runs (no
// filesystem access, invariant I7-friendly) with the same record semantics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bus/replication.hpp"
#include "common/bytes.hpp"
#include "common/metrics.hpp"

namespace amuse {

/// Write-ahead persistence interface: the choke point every ReplState
/// mutation funnels through (invariant I11 pins the ReplLog side).
class ReplStore {
 public:
  struct Stats {
    Counter ops_appended;
    Counter snapshots_written;
    Counter recoveries;             ///< successful recover() calls
    Counter torn_tails;             ///< corrupt/truncated tails dropped
  };

  /// Result of replaying the journal.
  struct Recovery {
    /// The recovered state; nullopt when the journal holds no snapshot
    /// (fresh store, or everything after creation was torn away).
    std::optional<ReplState> state;
    std::uint64_t records = 0;  ///< intact records replayed
  };

  virtual ~ReplStore() = default;

  /// Journals one encoded repl op (the same bytes ReplLog streams to
  /// standbys).
  virtual void append_ops(BytesView op) = 0;
  /// Persists a full encoded ReplState and compacts the journal down to it.
  virtual void snapshot(BytesView state) = 0;
  /// Replays the journal into a ReplState, dropping any torn tail.
  [[nodiscard]] virtual Recovery recover() = 0;

  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  Stats stats_;
};

/// Deterministic in-memory fake: identical record semantics, no filesystem.
/// Tests can tamper with the raw journal to exercise recovery paths.
class MemReplStore : public ReplStore {
 public:
  void append_ops(BytesView op) override;
  void snapshot(BytesView state) override;
  [[nodiscard]] Recovery recover() override;

  /// The raw framed journal, mutable so tests can corrupt/truncate it.
  [[nodiscard]] Bytes& journal() { return journal_; }

 private:
  Bytes journal_;
};

/// The real on-disk journal. All I/O is explicit (no background threads):
/// appends open-write-flush-close so a crash loses at most the record being
/// written — exactly the torn tail recovery truncates away.
class FileReplStore : public ReplStore {
 public:
  explicit FileReplStore(std::string path) : path_(std::move(path)) {}

  void append_ops(BytesView op) override;
  void snapshot(BytesView state) override;
  [[nodiscard]] Recovery recover() override;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Shared journal walk: replays `journal`, returns the recovery result and
/// the byte offset of the first torn record (== journal.size() when clean).
/// Both stores and the recovery tests use it.
struct JournalReplay {
  ReplStore::Recovery recovery;
  std::size_t valid_bytes = 0;
  bool torn = false;
};
[[nodiscard]] JournalReplay replay_repl_journal(BytesView journal);

/// Frames one record (type + length + crc + payload) onto `out`.
void frame_repl_record(Bytes& out, std::uint8_t type, BytesView payload);

inline constexpr std::uint8_t kReplRecordSnapshot = 1;
inline constexpr std::uint8_t kReplRecordOps = 2;

}  // namespace amuse
