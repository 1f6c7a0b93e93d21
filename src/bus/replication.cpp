#include "bus/replication.hpp"

#include <utility>

#include "bus/repl_store.hpp"
#include "pubsub/codec.hpp"

namespace amuse {
namespace {

// Op log opcodes (the `ops` payload of an incremental ReplUpdate).
constexpr std::uint8_t kOpMemberAdmit = 1;
constexpr std::uint8_t kOpMemberPurge = 2;
constexpr std::uint8_t kOpSubAdd = 3;
constexpr std::uint8_t kOpSubRemove = 4;
constexpr std::uint8_t kOpSpoolAppend = 5;
constexpr std::uint8_t kOpSpoolEvict = 6;
constexpr std::uint8_t kOpCounters = 7;
constexpr std::uint8_t kOpStandbyAdmit = 8;
constexpr std::uint8_t kOpStandbyPurge = 9;

// Spool entry layout (snapshot and kOpSpoolAppend alike): the origin stamp
// exactly as the kEvent header carries it, then the body.
void write_spool_entry(Writer& w, const ReplSpoolEntry& e) {
  e.origin.encode(w);
  w.blob32(e.event);
}

ReplSpoolEntry read_spool_entry(Reader& r) {
  ReplSpoolEntry e;
  e.origin = Origin::decode(r);
  e.event = r.blob32();
  return e;
}

}  // namespace

Event ReplSpoolEntry::decode() const {
  Event e = decode_event(event);
  e.set_origin(origin);
  return e;
}

Bytes ReplState::encode() const {
  Writer w;
  w.u64(epoch);
  w.u32(session_base);
  w.u32(proxy_incarnations);
  w.u64(origin_seq);
  w.u16(static_cast<std::uint16_t>(members.size()));
  for (const auto& [raw, m] : members) {
    w.u48(raw);
    w.str(m.device_type);
    w.str(m.role);
    w.u16(static_cast<std::uint16_t>(m.subs.size()));
    for (const auto& [local_id, filter] : m.subs) {
      w.u64(local_id);
      filter.encode(w);
    }
  }
  w.u16(static_cast<std::uint16_t>(standbys.size()));
  for (std::uint64_t raw : standbys) w.u48(raw);
  w.u32(static_cast<std::uint32_t>(spool.size()));
  for (const ReplSpoolEntry& e : spool) write_spool_entry(w, e);
  return std::move(w).take();
}

ReplState ReplState::decode(BytesView data) {
  Reader r(data);
  ReplState s;
  s.epoch = r.u64();
  s.session_base = r.u32();
  s.proxy_incarnations = r.u32();
  s.origin_seq = r.u64();
  std::uint16_t n_members = r.u16();
  for (std::uint16_t i = 0; i < n_members; ++i) {
    std::uint64_t raw = r.u48();
    ReplMember m;
    m.device_type = r.str();
    m.role = r.str();
    std::uint16_t n_subs = r.u16();
    for (std::uint16_t j = 0; j < n_subs; ++j) {
      std::uint64_t local_id = r.u64();
      m.subs.emplace(local_id, Filter::decode(r));
    }
    s.members.emplace(raw, std::move(m));
  }
  std::uint16_t n_standbys = r.u16();
  for (std::uint16_t i = 0; i < n_standbys; ++i) s.standbys.insert(r.u48());
  std::uint32_t n_spool = r.u32();
  for (std::uint32_t i = 0; i < n_spool; ++i) {
    s.spool.push_back(read_spool_entry(r));
  }
  if (!r.done()) throw DecodeError("trailing bytes in repl state");
  return s;
}

Digest256 ReplState::digest() const { return Sha256::hash(encode()); }

void ReplState::apply_ops(BytesView ops) {
  Reader r(ops);
  while (!r.done()) {
    std::uint8_t op = r.u8();
    switch (op) {
      case kOpMemberAdmit: {
        std::uint64_t raw = r.u48();
        ReplMember m;
        m.device_type = r.str();
        m.role = r.str();
        // Re-admission replaces the member wholesale, exactly like the
        // bus's purge-on-readmit.
        members[raw] = std::move(m);
        break;
      }
      case kOpMemberPurge: {
        std::uint64_t raw = r.u48();
        if (members.erase(raw) == 0) {
          throw DecodeError("repl op purges unknown member");
        }
        break;
      }
      case kOpSubAdd: {
        std::uint64_t raw = r.u48();
        std::uint64_t local_id = r.u64();
        Filter f = Filter::decode(r);
        auto it = members.find(raw);
        if (it == members.end()) {
          throw DecodeError("repl op subscribes unknown member");
        }
        // Upsert: re-subscribing a local id replaces its filter, matching
        // SubscriptionRegistry semantics.
        it->second.subs[local_id] = std::move(f);
        break;
      }
      case kOpSubRemove: {
        std::uint64_t raw = r.u48();
        std::uint64_t local_id = r.u64();
        auto it = members.find(raw);
        if (it == members.end() || it->second.subs.erase(local_id) == 0) {
          throw DecodeError("repl op unsubscribes unknown subscription");
        }
        break;
      }
      case kOpSpoolAppend:
        spool.push_back(read_spool_entry(r));
        break;
      case kOpSpoolEvict: {
        std::uint32_t count = r.u32();
        if (count > spool.size()) {
          throw DecodeError("repl op evicts past the spool");
        }
        spool.erase(spool.begin(), spool.begin() + count);
        break;
      }
      case kOpCounters: {
        session_base = r.u32();
        proxy_incarnations = r.u32();
        origin_seq = r.u64();
        break;
      }
      case kOpStandbyAdmit: {
        standbys.insert(r.u48());
        break;
      }
      case kOpStandbyPurge: {
        if (standbys.erase(r.u48()) == 0) {
          throw DecodeError("repl op purges unknown standby");
        }
        break;
      }
      default:
        throw DecodeError("bad repl opcode " + std::to_string(op));
    }
  }
}

void ReplLog::restore(ReplState state) {
  state_ = std::move(state);
  version_ = 0;
  ops_ = Writer();
  pending_ops_ = 0;
  spool_bytes_ = 0;
  for (const ReplSpoolEntry& e : state_.spool) spool_bytes_ += e.event.size();
  persist_snapshot();
}

void ReplLog::set_store(std::shared_ptr<ReplStore> store) {
  store_ = std::move(store);
  persist_snapshot();
}

void ReplLog::commit_op(std::size_t mark) {
  ++pending_ops_;
  if (!store_) return;
  const Bytes& buf = ops_.bytes();
  BytesView op(buf.data() + mark, buf.size() - mark);
  store_->append_ops(op);
  wal_op_bytes_ += op.size();
  if (wal_op_bytes_ >= limits_.wal_compact_bytes) persist_snapshot();
}

void ReplLog::persist_snapshot() {
  wal_op_bytes_ = 0;
  if (store_) store_->snapshot(state_.encode());
}

void ReplLog::set_epoch(std::uint64_t epoch) {
  state_.epoch = epoch;
  persist_snapshot();
}

void ReplLog::member_admitted(ServiceId id, const std::string& device_type,
                              const std::string& role) {
  ReplMember m;
  m.device_type = device_type;
  m.role = role;
  state_.members[id.raw()] = std::move(m);
  std::size_t mark = ops_.size();
  ops_.u8(kOpMemberAdmit);
  ops_.u48(id.raw());
  ops_.str(device_type);
  ops_.str(role);
  commit_op(mark);
}

void ReplLog::member_purged(ServiceId id) {
  if (state_.members.erase(id.raw()) == 0) return;
  std::size_t mark = ops_.size();
  ops_.u8(kOpMemberPurge);
  ops_.u48(id.raw());
  commit_op(mark);
}

void ReplLog::standby_admitted(ServiceId id) {
  if (!state_.standbys.insert(id.raw()).second) return;
  std::size_t mark = ops_.size();
  ops_.u8(kOpStandbyAdmit);
  ops_.u48(id.raw());
  commit_op(mark);
}

void ReplLog::standby_purged(ServiceId id) {
  if (state_.standbys.erase(id.raw()) == 0) return;
  std::size_t mark = ops_.size();
  ops_.u8(kOpStandbyPurge);
  ops_.u48(id.raw());
  commit_op(mark);
}

void ReplLog::sub_added(ServiceId member, std::uint64_t local_id,
                        const Filter& f) {
  auto it = state_.members.find(member.raw());
  if (it == state_.members.end()) return;
  it->second.subs[local_id] = f;
  std::size_t mark = ops_.size();
  ops_.u8(kOpSubAdd);
  ops_.u48(member.raw());
  ops_.u64(local_id);
  f.encode(ops_);
  commit_op(mark);
}

void ReplLog::sub_removed(ServiceId member, std::uint64_t local_id) {
  auto it = state_.members.find(member.raw());
  if (it == state_.members.end()) return;
  if (it->second.subs.erase(local_id) == 0) return;
  std::size_t mark = ops_.size();
  ops_.u8(kOpSubRemove);
  ops_.u48(member.raw());
  ops_.u64(local_id);
  commit_op(mark);
}

std::vector<ReplSpoolEntry> ReplLog::spool_append(const Origin& origin,
                                                  Bytes event) {
  spool_bytes_ += event.size();
  state_.spool.push_back(ReplSpoolEntry{origin, std::move(event)});
  std::size_t mark = ops_.size();
  ops_.u8(kOpSpoolAppend);
  write_spool_entry(ops_, state_.spool.back());
  commit_op(mark);

  std::vector<ReplSpoolEntry> evicted;
  while (state_.spool.size() > limits_.max_spool_events ||
         (spool_bytes_ > limits_.max_spool_bytes && state_.spool.size() > 1)) {
    spool_bytes_ -= state_.spool.front().event.size();
    evicted.push_back(std::move(state_.spool.front()));
    state_.spool.pop_front();
  }
  if (!evicted.empty()) {
    mark = ops_.size();
    ops_.u8(kOpSpoolEvict);
    ops_.u32(static_cast<std::uint32_t>(evicted.size()));
    commit_op(mark);
  }
  return evicted;
}

void ReplLog::counters_changed(std::uint32_t session_base,
                               std::uint32_t proxy_incarnations,
                               std::uint64_t origin_seq) {
  if (state_.session_base == session_base &&
      state_.proxy_incarnations == proxy_incarnations &&
      state_.origin_seq == origin_seq) {
    return;
  }
  state_.session_base = session_base;
  state_.proxy_incarnations = proxy_incarnations;
  state_.origin_seq = origin_seq;
  std::size_t mark = ops_.size();
  ops_.u8(kOpCounters);
  ops_.u32(session_base);
  ops_.u32(proxy_incarnations);
  ops_.u64(origin_seq);
  commit_op(mark);
}

ReplUpdate ReplLog::take_update() {
  ReplUpdate u;
  u.epoch = state_.epoch;
  if (pending_ops_ == 0) {
    // Bare lease renewal: proves the core is alive and that the standby's
    // version still matches, without re-hashing any state into the stream.
    u.lease = true;
    u.version = version_;
    return u;
  }
  u.version = ++version_;
  u.ops = std::move(ops_).take();
  ops_ = Writer();
  pending_ops_ = 0;
  u.digest = state_.digest();
  return u;
}

ReplUpdate ReplLog::snapshot() const {
  ReplUpdate u;
  u.full = true;
  u.epoch = state_.epoch;
  u.version = version_;
  u.ops = state_.encode();
  u.digest = state_.digest();
  return u;
}

ReplMirror::Apply ReplMirror::apply(const ReplUpdate& update) {
  if (update.epoch < max_epoch_) return Apply::kStaleEpoch;
  max_epoch_ = update.epoch;

  if (update.full) {
    ReplState incoming;
    try {
      incoming = ReplState::decode(update.ops);
    } catch (const DecodeError&) {
      synced_ = false;
      return Apply::kResyncNeeded;
    }
    // A snapshot that does not hash to its own digest is corrupt; refuse
    // it rather than silently diverging from the active core.
    if (!digest_equal(incoming.digest(), update.digest)) {
      synced_ = false;
      return Apply::kResyncNeeded;
    }
    state_ = std::move(incoming);
    version_ = update.version;
    synced_ = true;
    return Apply::kApplied;
  }

  if (update.lease) {
    if (!synced_ || update.version != version_) return Apply::kResyncNeeded;
    return Apply::kApplied;
  }

  // Incremental: only on top of exactly version - 1, only once synced.
  if (!synced_ || update.version != version_ + 1) {
    synced_ = false;
    return Apply::kResyncNeeded;
  }
  ReplState next = state_;
  try {
    next.apply_ops(update.ops);
  } catch (const DecodeError&) {
    synced_ = false;
    return Apply::kResyncNeeded;
  }
  if (!digest_equal(next.digest(), update.digest)) {
    synced_ = false;
    return Apply::kResyncNeeded;
  }
  state_ = std::move(next);
  version_ = update.version;
  return Apply::kApplied;
}

ReplState ReplMirror::take_state() {
  synced_ = false;
  return std::move(state_);
}

}  // namespace amuse
