// EventBus: the core of the SMC (§II-C, §III).
//
// Forwards events from publishing members to every interested member —
// exactly once per member, in per-sender order, through acknowledged,
// queued-and-retransmitted proxy channels. The matching engine behind the
// "EventBus" interface is pluggable (§III-A): the Siena-based engine (poset
// matcher reached through the translation layer) or the dedicated C-style
// engine (fast-forwarding counting matcher, no translation) — the paper's
// two measured configurations — plus a brute-force oracle for tests.
//
// Co-located services (the discovery service, the policy service, the
// proxy-bootstrap mechanism) publish and subscribe *locally* on the bus
// host without crossing the network; remote members are reached through
// their proxies.
#pragma once

#include <functional>
#include <memory>
#include <optional>
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
#include "pubsub/encoded_event.hpp"

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
  /// Elvin-style quenching (§VI): push the global filter table to members
  /// so publishers can suppress events nobody wants.
  bool quench = false;
  /// Perform the real string round-trip for the Siena engine (genuine
  /// wall-clock cost); the simulated cost applies regardless via `costs`.
  bool real_translation = true;
  ReliableChannelConfig channel;
  /// Bus-wide retained-byte budget across every proxy channel (DESIGN.md
  /// §9). Shared event bodies are counted once for the whole fan-out. When
  /// exceeded, the bus sheds the oldest data of the slowest member first.
  /// 0 = no bus-wide ledger (per-member budgets may still apply).
  std::size_t bus_queue_bytes = 0;
  /// Engine software costs charged to the simulated host; defaults to the
  /// calibrated profile for the chosen engine.
  std::optional<BusCostModel> costs;
  /// When set, the publish pipeline charges CPU time to this simulated
  /// host, which is what shapes Figure 4.
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
  /// Lease renewal cadence while a standby is connected; the standby's
  /// failure detector runs on these (plus ordinary repl traffic).
  Duration repl_lease_interval = std::chrono::milliseconds(400);
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
  /// The replication log's canonical state (tests / promotion plumbing).
  [[nodiscard]] const ReplState& repl_state() const { return repl_.state(); }
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
    std::uint64_t published = 0;
    std::uint64_t deliveries = 0;       // member deliveries enqueued
    std::uint64_t local_deliveries = 0;
    std::uint64_t no_subscriber = 0;    // matched nobody
    std::uint64_t denied_publish = 0;
    std::uint64_t denied_subscribe = 0;
    std::uint64_t quench_updates = 0;
    std::uint64_t quench_skipped = 0;   // no-op table pushes elided
    std::uint64_t encodes = 0;          // event bodies serialised
    std::uint64_t encode_reuses = 0;    // cached bodies reused by proxies
    std::uint64_t events_shed = 0;      // queued deliveries dropped, counted
    std::uint64_t flow_control_signals = 0;  // pressure on/off broadcasts
    std::uint64_t interests_propagated = 0;  // interest pushes to links
    std::uint64_t interest_resyncs = 0;      // full tables served on request
    std::uint64_t fed_events_suppressed = 0;  // no downstream interest —
                                              // crossed zero links
    std::uint64_t fed_duplicates_dropped = 0;  // origin-dedup hits (loops +
                                               // multi-path duplicates)
    std::uint64_t origins_replaced = 0;  // non-gateway publishes whose
                                         // origin the bus re-stamped
    std::uint64_t repl_updates = 0;        // repl stream messages sent
    std::uint64_t repl_resyncs = 0;        // full snapshots served on request
    std::uint64_t promotions = 0;          // 1 when this core restored a replica
    std::uint64_t staleness_redelivered = 0;  // spooled events re-sent on re-home
    std::uint64_t staleness_shed = 0;      // events the budget gave up on,
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
  void send_datagram(ServiceId dst, BytesView frame) override;
  AMUSE_AFFINITY(core_executor)
  void send_datagram_batch(ServiceId dst,
                           std::span<const Bytes> frames) override;
  AMUSE_AFFINITY(core_executor)
  void notify_shed(ServiceId member, const Event& event) override;
  AMUSE_AFFINITY(core_executor)
  void member_pressure(ServiceId member, bool under_pressure) override;
  AMUSE_AFFINITY(core_executor)
  void member_interest_resync(ServiceId member) override;
  AMUSE_AFFINITY(core_executor)
  void member_repl_resync(ServiceId member) override;
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
  AMUSE_AFFINITY(core_executor)
  void fan_out(const EncodedEvent& event,
               const SubscriptionRegistry::MatchResult& hit);
  /// Recomputes the interest table from the registry and pushes whatever
  /// changed: the quench table to every member (when quenching is on) and
  /// per-link interest diffs to gateway members.
  void interests_changed();
  void push_quench_table(Proxy& proxy);
  /// Full interest table to one link (admit / rejoin / resync request).
  void push_interest_table(Proxy& proxy);
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
  void schedule_lease_tick();
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
  std::unordered_map<std::uint64_t, Handler> local_handlers_;
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
  // Digest of the last filter table pushed to members; a (un)subscribe that
  // leaves the effective set unchanged skips the whole fan-out.
  bool quench_pushed_ = false;
  Digest256 quench_digest_{};
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
  std::uint64_t lease_timer_gen_ = 0;    // invalidates stale lease timers
  // Pre-crash membership from the restored replica: subscription snapshots
  // for spool re-delivery, consumed one-shot as each member re-homes.
  std::unordered_map<std::uint64_t, ReplMember> ha_rehome_;
  // Keeps `this` captures in lease timers from outliving the bus.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace amuse
