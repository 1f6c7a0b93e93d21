// Warm-standby replication of the bus core's durable state (DESIGN.md §13).
//
// The active core keeps a ReplLog: a canonical ReplState (membership +
// incarnation counters, per-member subscriptions, and a bounded spool of
// recently routed events) plus a pending op buffer. After every mutation the
// bus drains the buffer into a versioned, digest-checked ReplUpdate and
// streams it to standby-role members over the reliable channel's control
// class (kReplUpdate — never shed, like interest tables).
//
// The standby keeps a ReplMirror: the state-stream mirror of
// bus/state_stream.hpp — the same machine the InterestMirror runs — over a
// ReplState, with one addition in front of it: an update whose epoch is
// below one already seen → kStaleEpoch (split-brain fencing: a deposed
// core's stream must not roll the mirror back).
//
// The spool is the bounded-staleness budget: every routed event enters it,
// eviction past the byte/count bounds is a staleness-shed (accounted via
// BusObserver::on_staleness before the record disappears), and on promotion
// the surviving entries are exactly what the new core may re-deliver.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bus/messages.hpp"
#include "common/service_id.hpp"
#include "common/sha256.hpp"
#include "pubsub/event.hpp"
#include "pubsub/filter.hpp"
#include "sim/time.hpp"

namespace amuse {

class ReplStore;

/// Lease renewal cadence while a standby is connected; the standby's
/// failure detector runs on these (plus ordinary repl traffic).
inline constexpr Duration kReplLeaseInterval = std::chrono::milliseconds(400);

/// One spooled (routed but possibly still in-flight) event: the staleness
/// budget's unit of account. The origin rides beside the body, exactly as
/// it rides beside it in the kEvent frame header, so a re-delivery carries
/// the stamp members dedup on.
struct ReplSpoolEntry {
  Origin origin;
  /// The routed event's body, shared with the event itself: spooling
  /// copies no bytes.
  SharedBytes event;

  /// The routed event: the decoded body with its origin restored.
  [[nodiscard]] Event decode() const;
};

/// A replicated member: admission identity plus its live subscriptions.
struct ReplMember {
  std::string device_type;
  std::string role;
  /// local subscription id → filter, exactly the registry's view.
  std::map<std::uint64_t, Filter> subs;
};

/// The canonical durable state of a bus core. Encoding iterates the ordered
/// maps, so byte-identical state always yields a byte-identical encoding and
/// `digest()` is a true identity (the same canonicalisation argument as
/// FilterSet::digest()).
struct ReplState {
  std::uint64_t epoch = 0;
  /// Session-floor counters: the promoted core must hand out channel
  /// sessions above anything the dead core ever issued.
  std::uint32_t session_base = 0;
  std::uint32_t proxy_incarnations = 0;
  /// The bus's origin-stamp sequence: a promoted core continues it.
  std::uint64_t origin_seq = 0;
  std::map<std::uint64_t, ReplMember> members;  ///< keyed by ServiceId::raw.
  /// Standby roster (ServiceId::raw of every admitted standby, self
  /// included). Replicated so each standby knows its arbitration peers:
  /// promotion quorum is a majority of this set.
  std::set<std::uint64_t> standbys;
  std::deque<ReplSpoolEntry> spool;

  [[nodiscard]] Bytes encode() const;
  /// Throws DecodeError on malformed input.
  [[nodiscard]] static ReplState decode(BytesView data);
  /// SHA-256 of the canonical encoding.
  [[nodiscard]] Digest256 digest() const;
  /// Applies an encoded op log (the `ops` of an incremental ReplUpdate).
  /// Throws DecodeError on malformed input or ops that do not fit the
  /// current state (e.g. a subscription for an unknown member).
  void apply_ops(BytesView ops);
};

/// Active-core side: mutation journal + canonical state. The bus calls the
/// mutators inline with its own bookkeeping, then drains `take_update()` to
/// every standby after each externally visible step.
class ReplLog {
 public:
  struct Limits {
    std::size_t max_spool_events = 512;
    std::size_t max_spool_bytes = 256 * 1024;
    /// WAL compaction threshold: once this many op bytes have been appended
    /// to the attached ReplStore since the last snapshot record, the log
    /// persists a fresh snapshot and the store truncates its journal.
    std::size_t wal_compact_bytes = 128 * 1024;
  };

  ReplLog() = default;
  explicit ReplLog(Limits limits) : limits_(limits) {}

  /// Seeds the log from a replica (promotion) or a fresh state (cold
  /// start). Resets the version counter; standbys admitted later always
  /// start from a snapshot anyway.
  void restore(ReplState state);

  /// Attaches the write-ahead persistence hook. Every mutation from here on
  /// is journalled through the store (DESIGN.md §13.6); attaching persists a
  /// baseline snapshot immediately.
  void set_store(std::shared_ptr<ReplStore> store);

  void set_epoch(std::uint64_t epoch);
  void member_admitted(ServiceId id, const std::string& device_type,
                       const std::string& role);
  void member_purged(ServiceId id);
  /// Roster of standby-role members, replicated so every standby learns its
  /// arbitration peers (quorum denominator).
  void standby_admitted(ServiceId id);
  void standby_purged(ServiceId id);
  void sub_added(ServiceId member, std::uint64_t local_id, const Filter& f);
  void sub_removed(ServiceId member, std::uint64_t local_id);
  /// Appends a routed event to the spool and evicts past the limits.
  /// Returns the evicted entries so the bus can account each one as a
  /// staleness-shed before the record disappears.
  [[nodiscard]] std::vector<ReplSpoolEntry> spool_append(const Origin& origin,
                                                         SharedBytes event);
  void counters_changed(std::uint32_t session_base,
                        std::uint32_t proxy_incarnations,
                        std::uint64_t origin_seq);

  /// True when mutations are waiting to be streamed.
  [[nodiscard]] bool dirty() const { return pending_ops_ > 0; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const ReplState& state() const { return state_; }

  /// Drains the pending op buffer into an incremental update (bumps the
  /// version). With no pending ops it returns a bare lease renewal instead:
  /// a confirm of the current version and digest — the heartbeat the
  /// standby's lease runs on.
  [[nodiscard]] ReplUpdate take_update();
  /// A full snapshot at the current version (admission / resync).
  [[nodiscard]] ReplUpdate snapshot() const;

 private:
  /// The ReplStore choke point (invariant I11): every mutator finishes by
  /// committing the op bytes it appended (commit_op) or by persisting a
  /// fresh snapshot (persist_snapshot). No replicated state changes outside
  /// these two calls.
  void commit_op(std::size_t mark);
  void persist_snapshot();

  Limits limits_;
  ReplState state_;
  std::uint64_t version_ = 0;
  /// state_.digest() at version_ (what a lease confirms).
  Digest256 digest_ = state_.digest();
  Writer ops_;
  std::size_t pending_ops_ = 0;
  std::size_t spool_bytes_ = 0;
  std::shared_ptr<ReplStore> store_;
  std::size_t wal_op_bytes_ = 0;
};

/// Rate limiter for standby-side full-resync requests: on a lossy link every
/// version gap would otherwise turn into a snapshot storm. `allow()` grants
/// at most one request per `min_interval` and counts the rest (surfaced as
/// `repl_resyncs_suppressed`). The active core's lease stream keeps arriving
/// regardless, so a suppressed request is retried on the next update.
class ResyncThrottle {
 public:
  ResyncThrottle() = default;
  explicit ResyncThrottle(Duration min_interval)
      : min_interval_(min_interval) {}

  [[nodiscard]] bool allow(TimePoint now) {
    if (armed_ && now < last_ + min_interval_) {
      ++suppressed_;
      return false;
    }
    armed_ = true;
    last_ = now;
    return true;
  }

  [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }

 private:
  Duration min_interval_{};
  TimePoint last_{};
  bool armed_ = false;
  std::uint64_t suppressed_ = 0;
};

/// Standby side: the epoch fence, then the state-stream mirror.
class ReplMirror : public StreamMirror<ReplState> {
 public:
  [[nodiscard]] Apply apply(const ReplUpdate& update);
  [[nodiscard]] std::uint64_t epoch() const { return max_epoch_; }

 private:
  std::uint64_t max_epoch_ = 0;
};

}  // namespace amuse
