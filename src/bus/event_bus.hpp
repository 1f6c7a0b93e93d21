// EventBus: the core of the SMC (§II-C, §III).
//
// Forwards events from publishing members to every interested member —
// exactly once per member, in per-sender order, through acknowledged,
// queued-and-retransmitted proxy channels. The matching engine behind the
// "EventBus" interface is pluggable (§III-A): the Siena-based engine (poset
// matcher reached through the translation layer) or the dedicated C-style
// engine (fast-forwarding index matcher, no translation) — the paper's
// two measured configurations — plus a brute-force oracle for tests.
//
// Co-located services (the discovery service, the policy service, the
// proxy-bootstrap mechanism) publish and subscribe *locally* on the bus
// host without crossing the network; remote members are reached through
// their proxies.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "bus/bus_observer.hpp"
#include "bus/bus_port.hpp"
#include "bus/interest_table.hpp"
#include "bus/replication.hpp"
#include "bus/subscription_registry.hpp"
#include "common/sha256.hpp"
#include "hostmodel/cost_model.hpp"
#include "net/sim_network.hpp"
#include "net/transport.hpp"
#include "proxy/bootstrap.hpp"
#include "sim/timer.hpp"

namespace amuse {

enum class BusEngine {
  kCBased,      // FastForwardMatcher, no translation (the dedicated engine)
  kSienaBased,  // SienaMatcher through the translation layer
  kBruteForce,  // linear-scan oracle
};

[[nodiscard]] const char* to_string(BusEngine e);

enum class AuthAction : std::uint8_t { kPublish, kSubscribe };

struct EventBusConfig {
  BusEngine engine = BusEngine::kCBased;
  /// Elvin-style quenching (§VI): push the cell's filter table to every
  /// non-gateway member so publishers can suppress events nobody wants.
  bool quench = false;
  ReliableChannelConfig channel;
  /// Bus-wide retained-byte budget across every proxy channel (DESIGN.md
  /// §9). Shared event bodies are counted once for the whole fan-out. When
  /// exceeded, the bus sheds the oldest data of the slowest member first.
  /// 0 = no bus-wide ledger (per-member budgets may still apply).
  std::size_t bus_queue_bytes = 0;
  /// When set, the publish pipeline charges CPU time to this simulated
  /// host — the calibrated software costs of the chosen engine — which is
  /// what shapes Figure 4.
  SimHost* host = nullptr;
  /// Bus incarnation tag for reliable-channel frames.
  std::uint32_t session = 1;

  // ---- HA warm-standby replication (DESIGN.md §13).

  /// Streams the replication log to standby-role members and stamps every
  /// routed event with an Origin members dedup re-deliveries on. Implied
  /// (sticky) by admitting a standby member.
  bool ha = false;
  /// Promotion epoch of this core: 1 for a cold-started active core, the
  /// replica's epoch + 1 for a promoted standby. Fences split-brain: a
  /// deposed core's lower epoch loses everywhere it is compared.
  std::uint64_t epoch = 1;
  /// Bounded-staleness budget: how much recently routed traffic the spool
  /// retains for post-failover re-delivery. Eviction past either bound is
  /// a staleness-shed, accounted through BusObserver::on_staleness.
  std::size_t ha_spool_events = 512;
  std::size_t ha_spool_bytes = 256 * 1024;
  /// Replica to restore from (standby promotion): seeds the session-floor
  /// counters, the members' subscriptions, and the re-delivery spool.
  std::shared_ptr<const ReplState> restore;
  /// Write-ahead persistence hook (DESIGN.md §13.6): every ReplLog mutation
  /// is journalled through it, so a full-cell kill-and-restart recovers the
  /// membership, durable subscriptions and the re-delivery spool via
  /// ReplStore::recover() + `restore`. Null = in-memory only.
  std::shared_ptr<ReplStore> repl_store;
};

class EventBus final : public BusPort {
 public:
  using Handler = std::function<void(const Event&)>;
  /// Authorisation hook installed by the policy service. Return false to
  /// deny. `topic` is the event type being published, or the subscription
  /// filter's type constraint ("*" when unconstrained).
  using Authoriser = std::function<bool(const MemberInfo& member,
                                        AuthAction action,
                                        std::string_view topic)>;

  EventBus(Executor& executor, std::shared_ptr<Transport> transport,
           EventBusConfig config = {});
  ~EventBus() override;

  // ---- Membership (driven by the discovery service / SMC composition).

  /// Admits a member: instantiates its proxy via the bootstrap factory.
  /// Re-admitting an existing id purges the old incarnation first.
  AMUSE_AFFINITY(core_executor) void add_member(const MemberInfo& info);
  /// "Purge Member": destroys the proxy and any outbound data awaiting
  /// delivery, and removes all the member's subscriptions.
  AMUSE_AFFINITY(core_executor) void purge_member(ServiceId id);
  [[nodiscard]] bool has_member(ServiceId id) const;
  [[nodiscard]] const MemberInfo* member_info(ServiceId id) const;
  [[nodiscard]] Proxy* proxy_for(ServiceId id);
  [[nodiscard]] std::vector<MemberInfo> members() const;

  /// Register device-type-specific proxy creators before admitting members.
  [[nodiscard]] ProxyFactory& factory() { return factory_; }

  // ---- Local pub/sub for co-located services.

  AMUSE_AFFINITY(core_executor)
  std::uint64_t subscribe_local(const Filter& filter, Handler handler);
  AMUSE_AFFINITY(core_executor) void unsubscribe_local(std::uint64_t id);
  /// Publishes as the bus host itself (discovery events, policy actions…).
  /// The bus stamps its own origin: any origin the event carries is
  /// discarded, since only gateway members relay other cells' stamps.
  AMUSE_AFFINITY(core_executor) void publish_local(Event event);

  // ---- Federation (DESIGN.md §11).

  /// True once a gateway-role member was admitted (sticky).
  [[nodiscard]] bool federation_enabled() const { return federation_; }
  [[nodiscard]] const InterestTable& interest_table() const { return table_; }

  // ---- HA warm standby (DESIGN.md §13).

  /// Turns on the replication log + origin stamping. Implied by config.ha,
  /// config.restore, or admitting a standby-role member. Sticky: standby
  /// churn must not leave a window of unstamped events.
  AMUSE_AFFINITY(core_executor) void enable_ha();
  [[nodiscard]] bool ha_enabled() const { return ha_; }
  [[nodiscard]] std::uint64_t epoch() const { return config_.epoch; }
  /// True after step_down(): this core lost the cell to a higher epoch.
  [[nodiscard]] bool deposed() const { return deposed_; }
  /// Split-brain fencing: a revived core that discovers a higher-epoch
  /// rival abdicates — it stops routing (further publishes are accounted
  /// as staleness-shed, never silently dropped), accounts every spooled
  /// event the promoted core must now cover from its own replica, and
  /// purges all members so they re-home.
  AMUSE_AFFINITY(core_executor) void step_down();

  void set_authoriser(Authoriser authoriser);

  /// Installs (or clears, with {}) the instrumentation taps used by the
  /// delivery-guarantee oracle. Observers are passive: they must not call
  /// back into the bus.
  void set_observer(BusObserver observer);

  // ---- Introspection.

  struct Stats {
    Counter published;
    Counter deliveries;                 // member deliveries enqueued
    Counter local_deliveries;
    Counter no_subscriber;              // matched nobody
    Counter denied_publish;
    Counter denied_subscribe;
    Counter quench_updates;             // cell-view diffs broadcast
    Counter tables_elided;              // admissions answered with a confirm
    Counter encodes;                    // routed bodies (adopted as received
                                        // or serialised), one per event
    Counter encode_reuses;              // further uses of a routed body
                                        // (spool, members past the first)
    Counter events_shed;                // queued deliveries dropped, counted
    Counter flow_control_signals;            // pressure on/off broadcasts
    Counter interests_propagated;            // interest pushes to links
    Counter interest_resyncs;                // full tables served on request
    Counter fed_events_suppressed;            // no downstream interest —
                                              // crossed zero links
    Counter fed_duplicates_dropped;            // origin-dedup hits (loops +
                                               // multi-path duplicates)
    Counter origins_replaced;            // non-gateway publishes whose
                                         // origin the bus re-stamped
    Counter repl_updates;                  // repl stream messages sent
    Counter repl_resyncs;                  // full snapshots served on request
    Counter promotions;                    // 1 when this core restored a replica
    Counter staleness_redelivered;            // spooled events re-sent on re-home
    Counter staleness_shed;                // events the budget gave up on,
                                           // accounted via on_staleness
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SubscriptionRegistry& registry() const {
    return registry_;
  }
  /// Largest outbound queue across member proxies (health monitoring:
  /// a growing backlog means an unreachable or overwhelmed member).
  [[nodiscard]] std::size_t max_proxy_backlog() const;
  /// The bus-wide retained-byte ledger; null unless bus_queue_bytes is set.
  [[nodiscard]] const DeliveryBudget* shared_budget() const {
    return budget_.get();
  }
  /// True while any member channel is between its watermarks' high and low
  /// crossings (i.e. kFlowControl pressure is announced to publishers).
  [[nodiscard]] bool flow_pressure() const { return flow_announced_; }
  [[nodiscard]] const EventBusConfig& config() const { return config_; }

  // ---- BusPort (called by proxies).

  AMUSE_AFFINITY(core_executor)
  void member_publish(ServiceId member, Event event) override;
  AMUSE_AFFINITY(core_executor)
  void member_subscribe(ServiceId member, std::uint64_t local_id,
                        Filter filter) override;
  AMUSE_AFFINITY(core_executor)
  void member_unsubscribe(ServiceId member, std::uint64_t local_id) override;
  AMUSE_AFFINITY(core_executor)
  void send_datagrams(std::span<const Transport::Datagram> frames) override;
  AMUSE_AFFINITY(core_executor)
  void notify_shed(ServiceId member, const Event& event) override;
  AMUSE_AFFINITY(core_executor)
  void member_pressure(ServiceId member, bool under_pressure) override;
  AMUSE_AFFINITY(core_executor)
  void member_resync(ServiceId member, BusMsgType stream) override;
  [[nodiscard]] Executor& executor() override { return executor_; }
  [[nodiscard]] ServiceId bus_id() const override {
    return transport_->local_id();
  }
  [[nodiscard]] std::uint32_t bus_session() const override {
    return config_.session;
  }
  [[nodiscard]] std::uint32_t next_channel_session(ServiceId member) override {
    // Unique per proxy incarnation: a rejoined member's fresh receiver must
    // never mistake a stale in-flight frame from its previous incarnation's
    // proxy (destroyed on purge) for the new channel's seq 0. An admission
    // may have reserved the session already (so the JoinAccept could carry
    // it to the member); consume that reservation here.
    auto it = reserved_sessions_.find(member);
    if (it != reserved_sessions_.end()) {
      std::uint32_t session = it->second;
      reserved_sessions_.erase(it);
      return session;
    }
    return config_.session + (++proxy_incarnations_);
  }

  /// Pre-allocates the session the member's *next* proxy channel will use,
  /// so the discovery service can hand it to the device in the JoinAccept:
  /// the device's fresh receiver then refuses to adopt any stale frame from
  /// an earlier (strictly smaller-session) proxy incarnation.
  [[nodiscard]] std::uint32_t reserve_channel_session(ServiceId member) {
    std::uint32_t session = config_.session + (++proxy_incarnations_);
    reserved_sessions_[member] = session;
    return session;
  }
  [[nodiscard]] const ReliableChannelConfig& channel_config() const override {
    return config_.channel;
  }

 private:
  static std::unique_ptr<Matcher> make_matcher(BusEngine engine);
  /// Origin stamping + dedup on every routed event from here on. Implied by
  /// admitting a gateway-role member. Sticky: gateway churn must not leave
  /// a window of unstamped events.
  AMUSE_AFFINITY(core_executor) void enable_federation();
  // stamp + translation + cost + match + fan-out
  AMUSE_AFFINITY(core_executor) void route(Event event);
  /// `body_used`: the body already had a use (the cost model, the spool),
  /// so every member delivery counts as a reuse.
  AMUSE_AFFINITY(core_executor)
  void fan_out(const Event& event,
               const SubscriptionRegistry::MatchResult& hit, bool body_used);
  /// Recomputes the interest table from the registry and pushes whatever
  /// changed: the cell-view diff to every non-gateway member (when
  /// quenching is on) and per-link interest diffs to gateway members.
  void interests_changed();
  /// Full filter table to one member (admit / rejoin / resync request);
  /// a confirm when `held` already names the member's view.
  void push_interest_table(Proxy& proxy, const Digest256& held);
  /// Sheds the oldest data of the slowest member (stalled first, then the
  /// largest retained footprint) until the bus-wide ledger fits.
  void enforce_shared_budget();
  /// Broadcasts kFlowControl on empty↔non-empty transitions of the
  /// pressured-member set, looping until stable (the control bytes of the
  /// broadcast itself can move other channels across their watermarks).
  void update_flow_control();
  /// Streams pending replication ops to every standby after a mutation.
  AMUSE_AFFINITY(core_executor) void repl_flush();
  /// Periodic bare-lease renewal (or the pending ops, if any) while HA is
  /// on — the heartbeat the standby's failure detector runs on.
  AMUSE_AFFINITY(core_executor) void lease_tick();
  /// Full snapshot to one standby (admission / resync request).
  AMUSE_AFFINITY(core_executor) void push_repl_snapshot(Proxy& proxy);
  /// Re-delivers spooled events matching the member's pre-crash
  /// subscriptions, synchronously at re-home admission (before any new
  /// fan-out can enqueue on the fresh channel, preserving per-sender FIFO).
  AMUSE_AFFINITY(core_executor)
  void redeliver_spool(Proxy& proxy, const ReplMember& snapshot);
  /// One staleness-shed: accounted through on_staleness, never silent.
  AMUSE_AFFINITY(core_executor) void account_staleness(const Event& event);
  [[nodiscard]] static std::string topic_of(const Filter& filter);

  Executor& executor_;
  std::shared_ptr<Transport> transport_;
  EventBusConfig config_;
  BusCostModel costs_;
  SubscriptionRegistry registry_;
  ProxyFactory factory_;
  std::unordered_map<ServiceId, MemberInfo> member_info_;
  std::unordered_map<ServiceId, std::unique_ptr<Proxy>> proxies_;
  // Shared so a fan-out's snapshot keeps a handler alive past an
  // unsubscribe from inside the callback, without copying the closure.
  std::unordered_map<std::uint64_t, std::shared_ptr<const Handler>>
      local_handlers_;
  std::vector<std::shared_ptr<const Handler>> local_run_;  // fan_out stack
  SubscriptionRegistry::MatchResult hit_scratch_;  // route()'s, reused
  std::uint64_t next_local_id_ = 1;
  std::uint32_t proxy_incarnations_ = 0;
  std::unordered_map<ServiceId, std::uint32_t> reserved_sessions_;
  Authoriser authoriser_;
  BusObserver observer_;
  Stats stats_;
  std::shared_ptr<DeliveryBudget> budget_;  // null unless bus_queue_bytes
  std::unordered_set<ServiceId> pressured_members_;
  bool flow_announced_ = false;   // last broadcast state
  bool broadcasting_flow_ = false;  // re-entrancy guard
  // ---- Origin stamping (DESIGN.md §11, §13): on while federation_ || ha_.
  OriginDedup origin_dedup_;    // stamped arrivals from gateways
  std::uint64_t origin_seq_ = 0;  // sequence of our own stamps
  // ---- Federation routing state (DESIGN.md §11).
  InterestTable table_;
  std::set<ServiceId> gateway_members_;  // ordered: deterministic pushes
  bool federation_ = false;              // sticky once enabled
  // ---- HA warm-standby replication state (DESIGN.md §13).
  ReplLog repl_;
  std::set<ServiceId> standby_members_;  // ordered: deterministic pushes
  bool ha_ = false;                      // sticky once enabled
  bool deposed_ = false;                 // stepped down to a higher epoch
  Timer lease_timer_;                    // drives lease_tick()
  // Pre-crash membership from the restored replica: subscription snapshots
  // for spool re-delivery, consumed one-shot as each member re-homes.
  std::unordered_map<std::uint64_t, ReplMember> ha_rehome_;
};

}  // namespace amuse
