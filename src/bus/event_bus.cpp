#include "bus/event_bus.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "hostmodel/profiles.hpp"
#include "pubsub/brute_matcher.hpp"
#include "pubsub/fastforward_matcher.hpp"
#include "pubsub/siena_matcher.hpp"
#include "pubsub/siena_translation.hpp"

namespace amuse {
namespace {
const Logger kLog("bus");
}

const char* to_string(BusEngine e) {
  switch (e) {
    case BusEngine::kCBased: return "c-based";
    case BusEngine::kSienaBased: return "siena-based";
    case BusEngine::kBruteForce: return "brute-force";
  }
  return "?";
}

std::unique_ptr<Matcher> EventBus::make_matcher(BusEngine engine) {
  switch (engine) {
    case BusEngine::kCBased:
      return std::make_unique<FastForwardMatcher>();
    case BusEngine::kSienaBased:
      return std::make_unique<SienaMatcher>();
    case BusEngine::kBruteForce:
      return std::make_unique<BruteForceMatcher>();
  }
  return std::make_unique<FastForwardMatcher>();
}

EventBus::EventBus(Executor& executor, std::shared_ptr<Transport> transport,
                   EventBusConfig config)
    : executor_(executor),
      transport_(std::move(transport)),
      config_(std::move(config)),
      costs_(config_.costs.value_or(config_.engine == BusEngine::kSienaBased
                                        ? profiles::siena_bus_costs()
                                        : profiles::c_bus_costs())),
      registry_(make_matcher(config_.engine)) {
  if (config_.bus_queue_bytes > 0) {
    budget_ = std::make_shared<DeliveryBudget>(config_.bus_queue_bytes);
    // Every proxy channel charges/releases this ledger entry-by-entry;
    // the bus enforces the limit after each fan-out and quench push.
    config_.channel.shared_budget = budget_;
  }
  repl_ = ReplLog(
      ReplLog::Limits{config_.ha_spool_events, config_.ha_spool_bytes});
  // Attach the write-ahead persistence hook before any state is seeded so
  // the restore/cold-start snapshot below is the journal's baseline record.
  if (config_.repl_store) repl_.set_store(config_.repl_store);
  if (config_.restore) {
    // Standby promotion (DESIGN.md §13): resume the dead core's durable
    // state under our own (higher) epoch.
    const ReplState& replica = *config_.restore;
    // Session floors across promotion: every channel session this core
    // hands out must exceed anything the dead core ever issued, or a
    // rejoined member could adopt a stale in-flight frame as its fresh
    // stream. The slack covers sessions reserved after the last replicated
    // counter update (admissions racing the crash).
    config_.session = std::max(config_.session, replica.session_base);
    proxy_incarnations_ = replica.proxy_incarnations + 64;
    origin_seq_ = replica.origin_seq;
    stats_.promotions = 1;
    ha_ = true;
    ReplState seeded = replica;
    seeded.epoch = config_.epoch;
    seeded.session_base = config_.session;
    seeded.proxy_incarnations = proxy_incarnations_;
    // The replicated standby roster names the *previous* core's standbys —
    // including whichever of them just became this core. Start empty:
    // survivors re-home and re-register, and a stale entry would inflate
    // every future quorum denominator with a voter that no longer exists.
    seeded.standbys.clear();
    repl_.restore(std::move(seeded));
    for (const auto& [raw, member] : replica.members) {
      // Pre-seed the registry with every member's pre-crash subscriptions
      // so (a) the quench table is byte-identical to the one re-homing
      // members stashed (no quench storm on a no-change promotion) and
      // (b) events routed before a member re-homes still match it into
      // the spool. The snapshot is also the re-delivery filter consumed
      // when that member rejoins.
      if (member.role == kGatewayRole) federation_ = true;
      ha_rehome_.emplace(raw, member);
      for (const auto& [local_id, filter] : member.subs) {
        registry_.subscribe(ServiceId(raw), local_id, filter);
      }
    }
  } else if (config_.ha) {
    ha_ = true;
    repl_.set_epoch(config_.epoch);
  }
  transport_->set_receive_handler([this](ServiceId src, BytesView data) {
    auto it = proxies_.find(src);
    if (it == proxies_.end()) return;  // not (yet) a member: drop
    it->second->on_datagram(data);
  });
}

EventBus::~EventBus() { transport_->set_receive_handler(nullptr); }

void EventBus::add_member(const MemberInfo& info) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::add_member");
  if (has_member(info.id)) purge_member(info.id);
  member_info_.emplace(info.id, info);
  // The proxy constructor may immediately register subscriptions on the
  // device's behalf, so the info record must exist before creation.
  auto it = proxies_.emplace(info.id, factory_.create(*this, info)).first;
  // Seed the newcomer with the current quench table — unless the member
  // told us (trailing JOIN_RESP digest) it still holds exactly this table
  // from its previous incarnation. The skip is what keeps a failover from
  // turning into a quench storm: on a no-change promotion every re-homing
  // member presents the pre-crash digest, the promoted core's registry was
  // pre-seeded to the same canonical set, and nobody gets a redundant push.
  if (config_.quench && info.quench_digest != Digest256{}) {
    table_.rebuild(registry_.filters_by_member());
    Digest256 current = table_.all().digest();
    if (digest_equal(current, info.quench_digest)) {
      quench_pushed_ = true;
      quench_digest_ = current;
      ++stats_.quench_skipped;
    } else {
      push_quench_table(*it->second);
    }
  } else {
    push_quench_table(*it->second);
  }
  if (info.role == kGatewayRole) {
    // A routing peer: from here on every routed event carries an origin
    // stamp, and this link gets the cell's split-horizon interest table.
    // Admission (first join *and* rejoin) always pushes a full table — a
    // rejoined incarnation must never route on a stale mirror.
    enable_federation();
    gateway_members_.insert(info.id);
    push_interest_table(*it->second);
  }
  if (info.role == kStandbyRole) {
    // A warm standby: switch on HA replication (sticky) and seed the new
    // mirror with a full snapshot — like the interest table, admission
    // must never leave a standby running on stale state.
    enable_ha();
    standby_members_.insert(info.id);
    // Roster before snapshot: the admission snapshot must already name the
    // newcomer so every mirror (its own included) knows the full quorum.
    repl_.standby_admitted(info.id);
    push_repl_snapshot(*it->second);
    schedule_lease_tick();
  } else if (ha_) {
    repl_.member_admitted(info.id, info.device_type, info.role);
  }
  if (observer_.on_member_admitted) observer_.on_member_admitted(info);
  // A member of the dead core re-homing after promotion: re-offer the
  // spooled events its pre-crash subscriptions missed, before any new
  // fan-out can enqueue on the fresh channel (per-sender FIFO across the
  // promotion). One-shot per member; the member-side origin dedup drops
  // anything it already saw.
  if (auto rit = ha_rehome_.find(info.id.raw()); rit != ha_rehome_.end()) {
    ReplMember snapshot = std::move(rit->second);
    ha_rehome_.erase(rit);
    // On a promotion the constructor pre-seeded the registry with the
    // member's replicated subscriptions before any observer could attach:
    // replay whatever the registry actually holds so the observer's view
    // starts complete instead of trailing the member's own re-SUBSCRIBEs
    // (which deliveries on the restored set do not wait for). Read the
    // registry, not the snapshot — after a plain purge + re-join the
    // registry is empty (the snapshot only drives the spool re-offer) and
    // the observer must not be told otherwise.
    if (observer_.on_subscribe) {
      if (auto subs = registry_.subscriptions_by_member();
          subs.contains(info.id)) {
        for (const auto& [local_id, filter] : subs.at(info.id)) {
          observer_.on_subscribe(info.id, local_id, filter);
        }
      }
    }
    redeliver_spool(*it->second, snapshot);
  }
  repl_flush();
  kLog.debug("member ", info.id.to_string(), " admitted as ",
             info.device_type);
}

void EventBus::purge_member(ServiceId id) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::purge_member");
  auto it = proxies_.find(id);
  if (it == proxies_.end()) return;
  if (ha_ && !deposed_ && !standby_members_.contains(id)) {
    // Re-arm the spool re-offer debt. A purge can destroy a re-delivery
    // that never reached the member — admission is bus-side, so a member
    // whose JoinAccept died on a lossy link is admitted, offered the
    // spool, and purged again without ever seeing a byte of it. The next
    // admission re-offers; the member-side origin dedup makes a second
    // offer to a member that did receive everything a no-op.
    if (const MemberInfo* info = member_info(id);
        info != nullptr && info->role != kGatewayRole) {
      ReplMember snapshot;
      snapshot.device_type = info->device_type;
      snapshot.role = info->role;
      if (auto subs = registry_.subscriptions_by_member();
          subs.contains(id)) {
        snapshot.subs = subs.at(id);
      }
      ha_rehome_.insert_or_assign(id.raw(), std::move(snapshot));
    }
  }
  it->second->on_purge();  // destroy outbound data awaiting delivery
  proxies_.erase(it);
  member_info_.erase(id);
  registry_.remove_member(id);
  // on_purge() releasing the member's retained bytes normally fires the
  // low-watermark callback itself; erasing here covers a proxy torn down
  // without a pressure transition so a dead member can't pin the cell's
  // publishers under flow control forever.
  pressured_members_.erase(id);
  gateway_members_.erase(id);
  standby_members_.erase(id);
  table_.drop_link(id);
  update_flow_control();
  interests_changed();
  if (ha_) {
    repl_.member_purged(id);
    repl_.standby_purged(id);  // shrink the quorum denominator with it
    repl_flush();
  }
  if (observer_.on_member_purged) observer_.on_member_purged(id);
  kLog.debug("member ", id.to_string(), " purged");
}

bool EventBus::has_member(ServiceId id) const {
  return proxies_.contains(id);
}

const MemberInfo* EventBus::member_info(ServiceId id) const {
  auto it = member_info_.find(id);
  return it == member_info_.end() ? nullptr : &it->second;
}

Proxy* EventBus::proxy_for(ServiceId id) {
  auto it = proxies_.find(id);
  return it == proxies_.end() ? nullptr : it->second.get();
}

std::size_t EventBus::max_proxy_backlog() const {
  std::size_t worst = 0;
  for (const auto& [id, proxy] : proxies_) {
    worst = std::max(worst, proxy->pending());
  }
  return worst;
}

std::vector<MemberInfo> EventBus::members() const {
  std::vector<MemberInfo> out;
  out.reserve(member_info_.size());
  for (const auto& [id, info] : member_info_) out.push_back(info);
  return out;
}

std::uint64_t EventBus::subscribe_local(const Filter& filter,
                                        Handler handler) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::subscribe_local");
  std::uint64_t id = next_local_id_++;
  local_handlers_.emplace(id, std::move(handler));
  registry_.subscribe(bus_id(), id, filter);
  interests_changed();
  return id;
}

void EventBus::unsubscribe_local(std::uint64_t id) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::unsubscribe_local");
  local_handlers_.erase(id);
  registry_.unsubscribe(bus_id(), id);
  interests_changed();
}

void EventBus::publish_local(Event event) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::publish_local");
  if (event.publisher().is_nil()) event.set_publisher(bus_id());
  event.set_origin({});
  route(std::move(event));
}

void EventBus::enable_federation() {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::enable_federation");
  federation_ = true;
}

void EventBus::enable_ha() {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::enable_ha");
  if (ha_) return;
  ha_ = true;
  // Seed the replication log with the live state: standbys admitted from
  // here on snapshot from it. Standby members themselves are not
  // replicated — a promoted standby is the new core, not a member of it.
  ReplState seed;
  seed.epoch = config_.epoch;
  seed.session_base = config_.session;
  seed.proxy_incarnations = proxy_incarnations_;
  seed.origin_seq = origin_seq_;
  for (const auto& [id, info] : member_info_) {
    if (info.role == kStandbyRole) continue;
    ReplMember m;
    m.device_type = info.device_type;
    m.role = info.role;
    seed.members.emplace(id.raw(), std::move(m));
  }
  for (const auto& [member, subs] : registry_.subscriptions_by_member()) {
    auto it = seed.members.find(member.raw());
    if (it == seed.members.end()) continue;  // bus-local handlers
    it->second.subs = subs;
  }
  for (ServiceId sid : standby_members_) seed.standbys.insert(sid.raw());
  repl_.restore(std::move(seed));
}

void EventBus::step_down() {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::step_down");
  if (deposed_) return;
  deposed_ = true;
  ++lease_timer_gen_;  // invalidate any scheduled lease tick
  kLog.warn("core ", bus_id().to_string(), " deposed at epoch ",
            std::to_string(config_.epoch), "; stepping down");
  // Whatever is still spooled here the promoted core must cover from its
  // own replica; from this side it is abandoned — account every entry.
  for (const ReplSpoolEntry& entry : repl_.state().spool) {
    account_staleness(entry.decode());
  }
  // Purge everyone so they re-home to the promoted core.
  while (!proxies_.empty()) purge_member(proxies_.begin()->first);
  ha_rehome_.clear();
}

void EventBus::set_authoriser(Authoriser authoriser) {
  authoriser_ = std::move(authoriser);
}

void EventBus::set_observer(BusObserver observer) {
  observer_ = std::move(observer);
}

void EventBus::member_publish(ServiceId member, Event event) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::member_publish");
  const MemberInfo* info = member_info(member);
  if (!info) return;  // raced with a purge
  if (authoriser_ &&
      !authoriser_(*info, AuthAction::kPublish, event.type())) {
    ++stats_.denied_publish;
    kLog.debug("publish of ", event.type(), " by ", member.to_string(),
               " denied");
    return;
  }
  event.set_publisher(member);
  if (event.origin().stamped() && info->role != kGatewayRole) {
    // Only a routing peer relays another cell's stamp. Anything else —
    // a forgery, or a member re-publishing an event it received — would
    // pick its own dedup key and could suppress other members' events:
    // the bus stamps it afresh instead.
    event.set_origin({});
    ++stats_.origins_replaced;
  }
  route(std::move(event));
}

void EventBus::member_subscribe(ServiceId member, std::uint64_t local_id,
                                Filter filter) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::member_subscribe");
  const MemberInfo* info = member_info(member);
  if (!info) return;
  if (authoriser_ &&
      !authoriser_(*info, AuthAction::kSubscribe, topic_of(filter))) {
    ++stats_.denied_subscribe;
    kLog.debug("subscription by ", member.to_string(), " to ",
               topic_of(filter), " denied");
    return;
  }
  if (observer_.on_subscribe) observer_.on_subscribe(member, local_id, filter);
  registry_.subscribe(member, local_id, filter);
  interests_changed();
  if (ha_) {
    repl_.sub_added(member, local_id, filter);
    repl_flush();
  }
}

void EventBus::member_unsubscribe(ServiceId member, std::uint64_t local_id) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::member_unsubscribe");
  if (observer_.on_unsubscribe) observer_.on_unsubscribe(member, local_id);
  registry_.unsubscribe(member, local_id);
  interests_changed();
  if (ha_) {
    repl_.sub_removed(member, local_id);
    repl_flush();
  }
}

void EventBus::send_datagram(ServiceId dst, BytesView frame) {
  transport_->send(dst, frame);
}

void EventBus::send_datagram_batch(ServiceId dst,
                                   std::span<const Bytes> frames) {
  std::vector<Transport::Datagram> burst;
  burst.reserve(frames.size());
  for (const Bytes& f : frames) {
    burst.push_back(Transport::Datagram{dst, BytesView(f)});
  }
  transport_->send_batch(burst);
}

void EventBus::notify_shed(ServiceId member, const Event& event) {
  ++stats_.events_shed;
  if (observer_.on_shed) observer_.on_shed(member, event);
  kLog.debug("shed event ", event.type(), " queued for ",
             member.to_string());
}

void EventBus::member_pressure(ServiceId member, bool under_pressure) {
  if (under_pressure) {
    pressured_members_.insert(member);
  } else {
    pressured_members_.erase(member);
  }
  update_flow_control();
}

void EventBus::update_flow_control() {
  if (broadcasting_flow_) return;  // the outer broadcast loop re-checks
  broadcasting_flow_ = true;
  // Loop until stable: the broadcast's own control bytes can move other
  // channels across their watermarks synchronously.
  while (true) {
    bool want = !pressured_members_.empty();
    if (want == flow_announced_) break;
    flow_announced_ = want;
    ++stats_.flow_control_signals;
    kLog.debug(want ? "flow-control pressure raised"
                    : "flow-control pressure released");
    for (auto& [id, proxy] : proxies_) proxy->send_flow_control(want);
  }
  broadcasting_flow_ = false;
}

void EventBus::enforce_shared_budget() {
  if (!budget_) return;
  while (budget_->over_limit()) {
    // Deterministic victim order: stalled members first (they are not
    // making progress anyway), then the largest retained footprint, then
    // the smaller member id — proxies_ iteration order is unspecified,
    // the shed policy must not be.
    std::vector<Proxy*> candidates;
    candidates.reserve(proxies_.size());
    for (auto& [id, proxy] : proxies_) {
      if (proxy->retained_bytes() > 0) candidates.push_back(proxy.get());
    }
    std::sort(candidates.begin(), candidates.end(), [](Proxy* a, Proxy* b) {
      if (a->delivery_stalled() != b->delivery_stalled()) {
        return a->delivery_stalled();
      }
      if (a->retained_bytes() != b->retained_bytes()) {
        return a->retained_bytes() > b->retained_bytes();
      }
      return a->member_id().raw() < b->member_id().raw();
    });
    bool shed = false;
    for (Proxy* p : candidates) {
      if (p->shed_oldest_data()) {
        shed = true;
        break;
      }
    }
    // Only control and in-flight bytes remain anywhere: both are exempt.
    if (!shed) break;
  }
}

void EventBus::route(Event event) {
  if (deposed_) {
    // A stepped-down core must not route: the promoted core owns the cell
    // now and our stream can no longer reach the replica. Accounted, never
    // silent — the event leaves the staleness budget here.
    account_staleness(event);
    return;
  }
  if (event.timestamp() == TimePoint{}) event.set_timestamp(executor_.now());
  if (event.origin().stamped()) {
    // A gateway relayed another cell's event under its immutable origin
    // stamp (DESIGN.md §11). A stamp naming *this* cell means the event
    // has looped home; a stamp we have already routed is a multi-path
    // duplicate. Both die here — before the publish counters and the
    // oracle's publish tap — so loop termination needs no hop counter.
    if (event.origin().cell == bus_id() ||
        !origin_dedup_.admit(event.origin())) {
      ++stats_.fed_duplicates_dropped;
      return;
    }
  } else if (federation_ || ha_) {
    // Stamped exactly once, here at its origin cell. The key holds the
    // cell (federated cells count independently) and the epoch (so do
    // split-brain cores): federation dedups on it, and members dedup
    // failover re-deliveries on it (DESIGN.md §13).
    event.set_origin(Origin{bus_id(), config_.epoch, ++origin_seq_});
  }
  ++stats_.published;
  if (observer_.on_publish) observer_.on_publish(event);

  // The Siena-based engine pays the translation toll on every event: our
  // types → Siena types for matching, Siena types → ours for delivery.
  if (config_.engine == BusEngine::kSienaBased && config_.real_translation) {
    Origin origin = event.origin();
    event = siena_round_trip(event);
    event.set_origin(origin);
  }

  SubscriptionRegistry::MatchResult hit;
  registry_.match(event, hit);
  if (hit.empty()) ++stats_.no_subscriber;

  // One shared encoding per publish: every forwarding proxy in the fan-out
  // reuses these bytes instead of re-serialising the event per member.
  auto enc = std::make_shared<EncodedEvent>(freeze(std::move(event)));
  enc->set_counters(&stats_.encodes, &stats_.encode_reuses);

  if (ha_) {
    // Spool the routed event for post-failover re-delivery (only when a
    // remote member matched — re-delivery re-matches against replicated
    // member subscriptions, so an event nobody matched can never need it).
    bool remote = false;
    for (const auto& [member, locals] : hit) {
      if (member != bus_id()) {
        remote = true;
        break;
      }
    }
    if (remote) {
      for (const ReplSpoolEntry& evicted :
           repl_.spool_append(enc->event().origin(), *enc->shared_bytes())) {
        // The budget gave up on this event: failover can no longer
        // re-deliver it. Accounted before the record disappears.
        account_staleness(evicted.decode());
      }
      repl_flush();
    }
  }

  if (config_.host) {
    // Charge the matching + translation + serialisation work to the
    // simulated CPU and fan out when the host would actually be done with
    // it. The wire size comes from the shared encoding, which the fan-out
    // then reuses — the old pipeline encoded here just to measure, threw
    // the bytes away, and re-encoded once per member.
    Duration cost = costs_.publish_cost(enc->wire_size(), registry_.size(),
                                        config_.host->cpu());
    TimePoint done = config_.host->charge(executor_.now(), cost);
    executor_.schedule_at(done, [this, enc = std::move(enc),
                                 hit = std::move(hit)] {
      fan_out(*enc, hit);
    });
  } else {
    fan_out(*enc, hit);
  }
}

void EventBus::fan_out(const EncodedEvent& event,
                       const SubscriptionRegistry::MatchResult& hit) {
  if (!gateway_members_.empty()) {
    // Suppression accounting for the federation A/B: an event no gateway
    // matched crossed zero inter-cell links — the downstream interest
    // tables said nobody out there wants it.
    bool crossed = false;
    for (ServiceId link : gateway_members_) {
      if (hit.contains(link)) {
        crossed = true;
        break;
      }
    }
    if (!crossed) ++stats_.fed_events_suppressed;
  }
  for (const auto& [member, locals] : hit) {
    if (member == bus_id()) {
      // Local handlers may (un)subscribe from inside the callback.
      std::vector<Handler> handlers;
      handlers.reserve(locals.size());
      for (std::uint64_t local : locals) {
        auto hit_handler = local_handlers_.find(local);
        if (hit_handler != local_handlers_.end()) {
          handlers.push_back(hit_handler->second);
        }
      }
      for (const Handler& h : handlers) {
        ++stats_.local_deliveries;
        if (observer_.on_local_deliver) observer_.on_local_deliver(event.event());
        h(event.event());
      }
      continue;
    }
    auto pit = proxies_.find(member);
    if (pit == proxies_.end()) continue;  // purged between match and fan-out
    ++stats_.deliveries;
    if (observer_.on_deliver) observer_.on_deliver(member, event.event(), locals);
    pit->second->deliver_event(event, locals);
  }
  enforce_shared_budget();
}

void EventBus::interests_changed() {
  bool links = !gateway_members_.empty();
  if (!config_.quench && !links) return;
  // One canonical table (sorted by wire encoding, deduped — the quench
  // table is a *set*: order and duplicates carry no information), grouped
  // by owner so each link gets its split-horizon view.
  table_.rebuild(registry_.filters_by_member());
  bool pushed = false;
  if (config_.quench) {
    Digest256 digest = table_.all().digest();
    if (quench_pushed_ && digest_equal(digest, quench_digest_)) {
      // The effective filter set is unchanged (duplicate subscription,
      // unsubscribe of a duplicated filter, purge of a filterless member…):
      // pushing the same table to every member would be pure overhead.
      ++stats_.quench_skipped;
    } else {
      quench_pushed_ = true;
      quench_digest_ = digest;
      for (auto& [id, proxy] : proxies_) {
        proxy->send_quench_update(table_.all().filters());
      }
      ++stats_.quench_updates;
      pushed = true;
    }
  }
  for (ServiceId link : gateway_members_) {
    auto pit = proxies_.find(link);
    if (pit == proxies_.end()) continue;
    if (auto update = table_.refresh_link(link)) {
      // Versioned incremental diff (full on the first push); digest lets
      // the mirror detect divergence and ask for a resync.
      pit->second->send_interest_update(*update);
      ++stats_.interests_propagated;
      pushed = true;
    }
  }
  // Control bypasses the per-member budgets but still charges the ledger:
  // make room by shedding data if a push overflowed it.
  if (pushed) enforce_shared_budget();
}

void EventBus::push_quench_table(Proxy& proxy) {
  if (!config_.quench) return;
  table_.rebuild(registry_.filters_by_member());
  quench_pushed_ = true;
  quench_digest_ = table_.all().digest();
  proxy.send_quench_update(table_.all().filters());
  enforce_shared_budget();
}

void EventBus::push_interest_table(Proxy& proxy) {
  table_.rebuild(registry_.filters_by_member());
  proxy.send_interest_update(table_.full_update(proxy.member_id()));
  ++stats_.interests_propagated;
  enforce_shared_budget();
}

void EventBus::member_interest_resync(ServiceId member) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::member_interest_resync");
  if (!gateway_members_.contains(member)) return;
  auto pit = proxies_.find(member);
  if (pit == proxies_.end()) return;
  ++stats_.interest_resyncs;
  kLog.debug("interest resync requested by ", member.to_string());
  push_interest_table(*pit->second);
}

void EventBus::member_repl_resync(ServiceId member) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "EventBus::member_repl_resync");
  if (!standby_members_.contains(member)) return;
  auto pit = proxies_.find(member);
  if (pit == proxies_.end()) return;
  ++stats_.repl_resyncs;
  kLog.debug("repl resync requested by ", member.to_string());
  push_repl_snapshot(*pit->second);
}

void EventBus::repl_flush() {
  if (!ha_ || deposed_) return;
  repl_.counters_changed(config_.session, proxy_incarnations_, origin_seq_);
  if (!repl_.dirty()) return;
  ReplUpdate update = repl_.take_update();
  // With no standby connected the ops are simply drained: the state is
  // authoritative and a later standby starts from a snapshot anyway.
  if (standby_members_.empty()) return;
  ++stats_.repl_updates;
  for (ServiceId id : standby_members_) {
    auto pit = proxies_.find(id);
    if (pit != proxies_.end()) pit->second->send_repl_update(update);
  }
  enforce_shared_budget();
}

void EventBus::schedule_lease_tick() {
  std::uint64_t gen = ++lease_timer_gen_;
  executor_.schedule_after(config_.repl_lease_interval,
                           [this, gen, alive = std::weak_ptr<bool>(alive_)] {
                             if (alive.expired()) return;
                             if (gen != lease_timer_gen_) return;
                             lease_tick();
                           });
}

void EventBus::lease_tick() {
  if (!ha_ || deposed_ || standby_members_.empty()) return;
  repl_.counters_changed(config_.session, proxy_incarnations_, origin_seq_);
  // Pending mutations ride the tick; otherwise a bare lease renewal keeps
  // the standby's failure detector fed.
  ReplUpdate update = repl_.take_update();
  ++stats_.repl_updates;
  for (ServiceId id : standby_members_) {
    auto pit = proxies_.find(id);
    if (pit != proxies_.end()) pit->second->send_repl_update(update);
  }
  enforce_shared_budget();
  schedule_lease_tick();
}

void EventBus::push_repl_snapshot(Proxy& proxy) {
  // Drain pending ops first so the snapshot is the head of the stream —
  // re-sending already-folded ops on top of it would double-apply the
  // non-idempotent ones (spool appends) and force a pointless resync.
  repl_flush();
  ++stats_.repl_updates;
  proxy.send_repl_update(repl_.snapshot());
  enforce_shared_budget();
}

void EventBus::redeliver_spool(Proxy& proxy, const ReplMember& snapshot) {
  if (snapshot.subs.empty()) return;
  for (const ReplSpoolEntry& entry : repl_.state().spool) {
    Event event = entry.decode();
    std::vector<std::uint64_t> locals;
    for (const auto& [local_id, filter] : snapshot.subs) {
      if (filter.matches(event)) locals.push_back(local_id);
    }
    if (locals.empty()) continue;
    ++stats_.staleness_redelivered;
    if (observer_.on_redeliver) {
      observer_.on_redeliver(proxy.member_id(), event);
    }
    EncodedEvent enc(freeze(std::move(event)));
    enc.set_counters(&stats_.encodes, &stats_.encode_reuses);
    proxy.deliver_event(enc, locals);
  }
  enforce_shared_budget();
}

void EventBus::account_staleness(const Event& event) {
  ++stats_.staleness_shed;
  if (observer_.on_staleness) observer_.on_staleness(event);
  kLog.debug("staleness budget gave up on ", event.type());
}

std::string EventBus::topic_of(const Filter& filter) {
  for (const Constraint& c : filter.constraints()) {
    if (c.attribute == "type" && c.value.type() == ValueType::kString) {
      if (c.op == Op::kEq) return c.value.as_string();
      if (c.op == Op::kPrefix) return c.value.as_string() + "*";
    }
  }
  return "*";
}

}  // namespace amuse
