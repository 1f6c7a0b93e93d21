#include "torture/oracle.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace amuse::torture {
namespace {

constexpr std::uint64_t kOpen = std::numeric_limits<std::uint64_t>::max();

bool is_torture_event(const Event& e) { return e.type() == "torture"; }

std::string describe(const Event& e) {
  std::ostringstream os;
  os << "(sender=" << e.publisher().to_string() << " n=" << e.get_int("n")
     << " shard=" << e.get_int("shard") << " v=" << e.get_int("v") << ")";
  return os.str();
}

}  // namespace

void DeliveryOracle::attach(EventBus& bus, std::function<TimePoint()> now) {
  now_ = std::move(now);
  attach_tagged(bus, 0);
}

void DeliveryOracle::attach_promoted(EventBus& bus) {
  // The promoted core's own admissions ARE its replica from here on.
  severed_ = false;
  attach_tagged(bus, ++active_tag_);
}

void DeliveryOracle::core_incident(TimePoint when) {
  // Repl-lag slack: the active core flushes the replication stream on every
  // routed event, but an update in flight (plus a couple of 120 ms RTOs on
  // the control channel) dies with the core. Anything older must be in the
  // replica — and therefore re-delivered or staleness-accounted.
  incident_windows_.emplace_back(when - milliseconds(1000), when);
}

bool DeliveryOracle::in_incident_window(TimePoint routed_at) const {
  for (const auto& [lo, hi] : incident_windows_) {
    if (lo <= routed_at && routed_at <= hi) return true;
  }
  return false;
}

void DeliveryOracle::attach_tagged(EventBus& bus, int tag) {
  BusObserver obs;
  // Membership and subscription truth follows the active bus (F5): once a
  // standby promotes, the dead/deposed incarnation's admissions and purges
  // no longer move the intervals — but its routing taps below still count.
  obs.on_member_admitted = [this, tag](const MemberInfo& info) {
    engine_mirror_[tag][info.id].clear();
    if (tag != active_tag_) return;
    ++seq_;
    auto& iv = intervals_[info.id];
    if (!iv.empty() && iv.back().close_seq == kOpen) iv.back().close_seq = seq_;
    iv.push_back(Interval{seq_, kOpen, false, severed_});
    mirror_[info.id].clear();
  };
  obs.on_member_purged = [this, tag](ServiceId id) {
    engine_mirror_[tag][id].clear();
    if (tag != active_tag_) return;
    ++seq_;
    auto& iv = intervals_[id];
    if (!iv.empty() && iv.back().close_seq == kOpen) {
      iv.back().close_seq = seq_;
      iv.back().purged = true;
    }
    mirror_[id].clear();
  };
  obs.on_subscribe = [this, tag](ServiceId member, std::uint64_t local_id,
                                 const Filter& filter) {
    engine_mirror_[tag][member][local_id] = filter;
    if (tag != active_tag_) return;
    ++seq_;
    mirror_[member][local_id] = filter;
  };
  obs.on_unsubscribe = [this, tag](ServiceId member, std::uint64_t local_id) {
    engine_mirror_[tag][member].erase(local_id);
    if (tag != active_tag_) return;
    ++seq_;
    mirror_[member].erase(local_id);
  };
  obs.on_publish = [this](const Event& e) { bus_publish(e); };
  obs.on_deliver = [this, tag](ServiceId member, const Event& e,
                               std::span<const std::uint64_t> locals) {
    bus_deliver(tag, member, e, locals);
  };
  obs.on_shed = [this](ServiceId member, const Event& e) {
    ++seq_;
    if (!is_torture_event(e)) return;
    shed_.insert(std::make_tuple(member.raw(), e.publisher().raw(),
                                 e.get_int("n", -1)));
  };
  obs.on_redeliver = [this](ServiceId member, const Event& e) {
    ++seq_;
    if (!is_torture_event(e)) return;
    redelivered_.insert(std::make_tuple(member.raw(), e.publisher().raw(),
                                        e.get_int("n", -1)));
  };
  obs.on_staleness = [this](const Event& e) {
    ++seq_;
    if (!is_torture_event(e)) return;
    staleness_.insert(std::make_pair(e.publisher().raw(), e.get_int("n", -1)));
  };
  bus.set_observer(std::move(obs));
}

void DeliveryOracle::on_member_joined(std::size_t member_idx,
                                      std::uint64_t incarnation,
                                      TimePoint when) {
  join_time_.emplace(std::make_pair(member_idx, incarnation), when);
}

void DeliveryOracle::fail(std::string invariant, std::string detail) {
  if (violation_) return;  // keep the first violation
  violation_ = Violation{std::move(invariant), std::move(detail)};
}

void DeliveryOracle::bus_publish(const Event& e) {
  ++seq_;
  if (!is_torture_event(e)) return;
  std::uint64_t sender = e.publisher().raw();
  std::int64_t n = e.get_int("n", -1);
  auto key = std::make_pair(sender, n);
  if (publishes_.contains(key)) {
    fail("duplicate-publish",
         "event " + describe(e) +
             " reached the bus twice; a stale channel incarnation leaked");
    return;
  }
  PublishRecord rec;
  rec.seq = seq_;
  rec.order = ++sender_order_[sender];
  rec.routed_at = now_();
  // Candidate receivers: every currently-admitted member (with an open
  // interval) whose mirrored subscription set matches the event now.
  for (const auto& [member, subs] : mirror_) {
    const auto iv = intervals_.find(member);
    if (iv == intervals_.end() || iv->second.empty() ||
        iv->second.back().close_seq != kOpen) {
      continue;
    }
    std::vector<std::uint64_t> matching;
    for (const auto& [local_id, filter] : subs) {
      if (filter.matches(e)) matching.push_back(local_id);
    }
    if (!matching.empty()) rec.candidates.emplace(member, std::move(matching));
  }
  publishes_.emplace(key, std::move(rec));
}

void DeliveryOracle::bus_deliver(int tag, ServiceId member, const Event& e,
                                 std::span<const std::uint64_t> locals) {
  ++seq_;
  if (!is_torture_event(e)) return;
  // (d) The engine's matched set must equal the brute-force specification —
  // checked against the delivering bus's OWN subscription stream, not the
  // active-membership truth (a deposed core's registry lags legitimately).
  std::vector<std::uint64_t> expect;
  const auto& engine = engine_mirror_[tag];
  auto mit = engine.find(member);
  if (mit != engine.end()) {
    for (const auto& [local_id, filter] : mit->second) {
      if (filter.matches(e)) expect.push_back(local_id);
    }
  }
  std::vector<std::uint64_t> got(locals.begin(), locals.end());
  std::sort(got.begin(), got.end());
  if (got != expect) {
    std::ostringstream os;
    os << "delivery of " << describe(e) << " to " << member.to_string()
       << " matched locals {";
    for (auto id : got) os << id << ",";
    os << "} but the subscription mirror expects {";
    for (auto id : expect) os << id << ",";
    os << "}";
    fail(expect.empty() ? "quench-consistency" : "matching-mismatch",
         os.str());
  }
}

void DeliveryOracle::on_member_delivery(std::size_t member_idx,
                                        ServiceId member_id,
                                        std::uint64_t incarnation,
                                        std::uint64_t sub_tag,
                                        const Event& e) {
  if (!is_torture_event(e)) return;
  ++delivery_count_;
  std::uint64_t sender = e.publisher().raw();
  std::int64_t n = e.get_int("n", -1);

  auto pub = publishes_.find(std::make_pair(sender, n));
  if (pub == publishes_.end()) {
    fail("phantom-delivery",
         "member " + member_id.to_string() + " received " + describe(e) +
             " which the bus never routed");
    return;
  }
  // (F4) a spool re-delivery from a promoted core legitimately arrives
  // long after the receiving incarnation joined — exempt from (e) and
  // from the FIFO regression check in (F2).
  bool redelivered =
      ha_mode_ && redelivered_.contains(std::make_tuple(member_id.raw(),
                                                        sender, n));
  // (e) stale delivery: the event was routed by the bus well before this
  // incarnation of the receiver joined, so it can only have arrived through
  // channel state leaked across a purge. The 250 ms slack generously covers
  // the legitimate window (proxy created at admission, client created when
  // the JoinAccept lands one datagram-flight later).
  auto jt = join_time_.find(std::make_pair(member_idx, incarnation));
  if (!redelivered && jt != join_time_.end() &&
      pub->second.routed_at + milliseconds(250) < jt->second) {
    fail("stale-delivery",
         "member " + member_id.to_string() + " incarnation " +
             std::to_string(incarnation) + " (joined at " +
             std::to_string(to_seconds(jt->second.time_since_epoch())) +
             "s) received " + describe(e) + " routed at " +
             std::to_string(
                 to_seconds(pub->second.routed_at.time_since_epoch())) +
             "s — backlog leaked from a previous incarnation");
    return;
  }
  // (a) exactly once per (receiver incarnation, subscription, sender, n).
  auto dup_key = std::make_tuple(member_idx, incarnation, sub_tag, sender, n);
  if (!seen_.insert(dup_key).second) {
    fail("duplicate-delivery",
         "member " + member_id.to_string() + " (incarnation " +
             std::to_string(incarnation) + ", sub " +
             std::to_string(sub_tag) + ") received " + describe(e) +
             " twice");
    return;
  }
  // (F1) exactly-once across ALL incarnations: a failover may re-deliver,
  // but the member-side (epoch, seq) dedup must swallow anything the
  // member already saw in a previous incarnation.
  if (ha_mode_ &&
      !ha_seen_.insert(std::make_tuple(member_idx, sub_tag, sender, n))
           .second) {
    fail("ha-duplicate-delivery",
         "member " + member_id.to_string() + " (sub " +
             std::to_string(sub_tag) + ") received " + describe(e) +
             " in two incarnations — the (epoch, seq) origin dedup failed"
             " across the promotion");
    return;
  }
  // (b) per-sender FIFO within one receiver incarnation: the per-sender
  // publish order must be strictly increasing (gaps = losses across purges
  // are legal; reordering is not).
  auto fifo_key = std::make_tuple(member_idx, incarnation, sub_tag, sender);
  auto [it, fresh] = fifo_.try_emplace(fifo_key, pub->second.order);
  if (!fresh) {
    if (pub->second.order <= it->second) {
      fail("fifo", "member " + member_id.to_string() + " (incarnation " +
                       std::to_string(incarnation) + ") received " +
                       describe(e) + " with per-sender order " +
                       std::to_string(pub->second.order) +
                       " after already seeing order " +
                       std::to_string(it->second));
      return;
    }
    it->second = pub->second.order;
  }
  // (F2) per-sender FIFO across the promotion: the watermark survives the
  // re-home. A regression is legal only for a spool re-delivery (healing
  // an event the old core shed out from under a later delivery).
  if (ha_mode_) {
    auto hk = std::make_tuple(member_idx, sub_tag, sender);
    auto [hit, hfresh] = ha_fifo_.try_emplace(hk, pub->second.order);
    if (!hfresh) {
      if (pub->second.order <= hit->second) {
        if (!redelivered) {
          fail("ha-fifo",
               "member " + member_id.to_string() + " received " +
                   describe(e) + " with per-sender order " +
                   std::to_string(pub->second.order) +
                   " after already seeing order " +
                   std::to_string(hit->second) +
                   " in an earlier incarnation, and it was not a spool"
                   " re-delivery");
          return;
        }
      } else {
        hit->second = pub->second.order;
      }
    }
  }
  delivered_.insert(std::make_tuple(member_id.raw(), sender, n));
}

void DeliveryOracle::finish() {
  if (violation_) return;
  // (c) lost delivery: for every publish, every candidate member whose
  // admission interval stayed open from the publish to the end of the run,
  // and at least one of whose matching subscriptions survived to the end,
  // must have received the event.
  //
  // (F3) extends (c) across a promotion: a candidate whose interval was
  // closed by a RE-ADMISSION (re-home onto the promoted core — not a
  // purge, which legally destroys queues) must also have received the
  // event, unless a shed record, a staleness-budget record, or the
  // repl-lag window before a core crash accounts for it.
  for (const auto& [key, rec] : publishes_) {
    for (const auto& [member, matching] : rec.candidates) {
      ++tally_.pairs;
      if (delivered_.contains(
              std::make_tuple(member.raw(), key.first, key.second))) {
        ++tally_.delivered;
        continue;
      }
      // Overload shedding is always a legal excuse when the bus accounted
      // for it with a shed record for exactly this (member, event) pair.
      if (shed_.contains(
              std::make_tuple(member.raw(), key.first, key.second))) {
        ++tally_.shed;
        continue;
      }
      if (ha_mode_) {
        // The staleness budget accounted for the event (spool eviction,
        // deposed-core route, or the step-down drain) — bounded staleness
        // is the contract, silent loss is not.
        if (staleness_.contains(std::make_pair(key.first, key.second))) {
          ++tally_.staleness;
          continue;
        }
        if (in_incident_window(rec.routed_at)) {
          ++tally_.repl_lag;
          continue;
        }
      }
      const auto iv = intervals_.find(member);
      if (iv == intervals_.end() || iv->second.empty()) {
        ++tally_.exempt;
        continue;
      }
      // Find the admission interval that was open at publish time.
      const Interval* at_pub = nullptr;
      for (const Interval& i : iv->second) {
        if (i.open_seq <= rec.seq &&
            (i.close_seq == kOpen || rec.seq <= i.close_seq)) {
          at_pub = &i;
          break;
        }
      }
      if (at_pub == nullptr) {
        ++tally_.exempt;
        continue;
      }
      if (at_pub->close_seq == kOpen) {
        // Still admitted, never re-homed: the base guarantee, provided at
        // least one matching subscription survived to the end of the run.
        const auto mit = mirror_.find(member);
        if (mit == mirror_.end()) {
          ++tally_.unsubscribed;
          continue;
        }
        bool survived = std::any_of(
            matching.begin(), matching.end(),
            [&](std::uint64_t id) { return mit->second.contains(id); });
        if (!survived) {
          ++tally_.unsubscribed;
          continue;
        }
        fail("lost-delivery",
             "member " + member.to_string() +
                 " stayed admitted and subscribed but never received event"
                 " (sender=" +
                 std::to_string(key.first) +
                 " n=" + std::to_string(key.second) +
                 "), and no shed record accounts for it");
        return;
      }
      // An admission the severed repl stream never carried to the standby
      // is invisible to the promoted core — the member's later join there
      // is a fresh join, not a covered re-home, so F3 does not apply.
      if (ha_mode_ && !at_pub->purged && !at_pub->unreplicated) {
        fail("ha-lost-delivery",
             "member " + member.to_string() +
                 " re-homed across the promotion but never received event"
                 " (sender=" +
                 std::to_string(key.first) +
                 " n=" + std::to_string(key.second) +
                 "), and no shed, staleness, or repl-lag record accounts"
                 " for it");
        return;
      }
      if (at_pub->purged) {
        ++tally_.purged;
      } else if (at_pub->unreplicated) {
        ++tally_.unreplicated;
      } else {
        ++tally_.exempt;  // non-HA re-home: (c) does not reach across it
      }
    }
  }
}

}  // namespace amuse::torture
