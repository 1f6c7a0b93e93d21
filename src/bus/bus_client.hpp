// BusClient: the member-side library for services that speak the bus wire
// protocol themselves ("simple proxies for complex sensors" — the service
// is smart, its proxy at the bus is a ForwardingProxy).
//
// Gives application code the event-bus programming model of Fig. 3:
// subscribe with a content filter and a handler (arrow 1), publish events
// (with transport-level acknowledgement and retransmission underneath), and
// receive matching events pushed by the bus (arrow 2) exactly once, in
// per-sender order.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "bus/interest_table.hpp"
#include "bus/messages.hpp"
#include "bus/quench.hpp"
#include "common/annotations.hpp"
#include "net/transport.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {

struct BusClientConfig {
  ReliableChannelConfig channel;
  /// Honour quench tables pushed by the bus (suppress unwanted publishes).
  bool quench = false;
  /// Channel incarnation tag; distinct per (re)join. 0 = derive one from
  /// the transport id (fine for tests; SMC membership supplies real ones).
  std::uint32_t session = 0;
  /// When false the client does not install the transport's receive
  /// handler; the owner (e.g. SmcMember, which muxes the endpoint between
  /// discovery agent and bus client) feeds handle_datagram() itself.
  bool install_receive_handler = true;
};

class BusClient {
 public:
  using Handler = std::function<void(const Event&)>;

  BusClient(Executor& executor, std::shared_ptr<Transport> transport,
            ServiceId bus, BusClientConfig config = {});
  ~BusClient();

  BusClient(const BusClient&) = delete;
  BusClient& operator=(const BusClient&) = delete;

  /// Registers a content subscription; the handler runs for every matching
  /// event. Returns the local subscription id.
  AMUSE_AFFINITY(member_executor)
  std::uint64_t subscribe(const Filter& filter, Handler handler);
  AMUSE_AFFINITY(member_executor) void unsubscribe(std::uint64_t id);

  /// Publishes an event. Returns false when the event was quenched
  /// (suppressed because no subscription in the cell matches) or when the
  /// bus has announced flow-control pressure. A pressured publish is still
  /// sent (delivery stays reliable); the false return is the advisory
  /// signal for publishers that can defer — see SmcMember, which buffers.
  /// An origin stamp on the event travels in the frame header; the bus
  /// honours it only from gateway-role members (DESIGN.md §11).
  AMUSE_AFFINITY(member_executor) bool publish(Event event);

  /// Invoked on kFlowControl transitions from the bus: true when the bus
  /// asks publishers to back off, false when pressure is released.
  using PressureFn = std::function<void(bool)>;
  void set_on_pressure(PressureFn fn) { on_pressure_ = std::move(fn); }
  /// True while the bus's last kFlowControl announced pressure.
  [[nodiscard]] bool pressured() const { return pressured_; }

  /// Handler for events that arrive for an already-unsubscribed id
  /// (in-flight at unsubscribe time); defaults to dropping them.
  void set_unclaimed_handler(Handler handler);

  /// Invoked after every cleanly applied kInterestUpdate with the current
  /// remote interest table (gateway members only; never fires for plain
  /// members — the bus only pushes interest to gateway-role peers).
  using InterestFn = std::function<void(const FilterSet&)>;
  void set_on_interest(InterestFn fn) { on_interest_ = std::move(fn); }
  /// The mirror of the interest table the bus last pushed to this peer.
  [[nodiscard]] const InterestMirror& interest_mirror() const {
    return mirror_;
  }

  /// Invoked for every kReplUpdate / kReplSnapshot from the bus (standby
  /// members only; never fires for plain members — the bus only streams
  /// replication to standby-role peers). The receiver owns the ReplMirror
  /// and decides when to request_repl_resync().
  using ReplFn = std::function<void(const ReplUpdate&)>;
  void set_on_repl(ReplFn fn) { on_repl_ = std::move(fn); }
  /// Standby → bus: the repl mirror lost sync, ask for a full snapshot.
  /// Control class, like the stream itself.
  AMUSE_AFFINITY(member_executor) void request_repl_resync();

  /// Pre-dispatch delivery filter: runs once per arriving kEvent, before
  /// any handler; return false to drop the event (counted, not silent).
  /// SmcMember installs the origin-stamp re-delivery dedup here.
  using DeliveryFilter = std::function<bool(const Event&)>;
  void set_delivery_filter(DeliveryFilter filter) {
    delivery_filter_ = std::move(filter);
  }

  /// Canonical digest of the last quench table the bus pushed (all-zero
  /// until one arrives). A re-homing member hands this to the discovery
  /// agent so an unchanged table is not pushed again (DESIGN.md §13).
  [[nodiscard]] const Digest256& quench_digest() const {
    return quench_digest_;
  }
  [[nodiscard]] bool quench_received() const { return quench_received_; }

  /// Feeds one raw datagram (used when install_receive_handler is false).
  AMUSE_AFFINITY(member_executor)
  void handle_datagram(ServiceId src, BytesView data);

  [[nodiscard]] ServiceId id() const { return transport_->local_id(); }
  [[nodiscard]] ServiceId bus() const { return bus_; }

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t quenched = 0;
    std::uint64_t pressured_publishes = 0;  // sent while under flow control
    std::uint64_t flow_signals = 0;         // kFlowControl messages received
    std::uint64_t events_received = 0;
    std::uint64_t handler_invocations = 0;
    std::uint64_t interest_updates = 0;   // cleanly applied pushes
    std::uint64_t interest_resyncs = 0;   // resync requests sent
    std::uint64_t repl_updates = 0;       // repl stream messages received
    std::uint64_t repl_resyncs = 0;       // repl resync requests sent
    std::uint64_t deliveries_filtered = 0;  // dropped by the delivery
                                            // filter (origin dedup hits)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ReliableChannelStats& channel_stats() const {
    return channel_->stats();
  }
  [[nodiscard]] const QuenchTable& quench_table() const { return quench_; }
  /// Events queued towards the bus but not yet acknowledged.
  [[nodiscard]] std::size_t backlog() const {
    return channel_->queued() + channel_->in_flight();
  }

 private:
  AMUSE_AFFINITY(member_executor) void on_message(BytesView message);

  std::shared_ptr<Transport> transport_;
  ServiceId bus_;
  BusClientConfig config_;
  std::unique_ptr<ReliableChannel> channel_;
  std::map<std::uint64_t, Handler> handlers_;
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t next_pub_seq_ = 1;
  Handler unclaimed_;
  PressureFn on_pressure_;
  InterestFn on_interest_;
  ReplFn on_repl_;
  DeliveryFilter delivery_filter_;
  bool pressured_ = false;
  QuenchTable quench_;
  Digest256 quench_digest_{};
  bool quench_received_ = false;
  InterestMirror mirror_;
  Stats stats_;
  Executor& executor_;
};

}  // namespace amuse
