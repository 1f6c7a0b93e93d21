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
#include <memory>
#include <utility>
#include <vector>

#include "bus/interest_table.hpp"
#include "bus/messages.hpp"
#include "common/annotations.hpp"
#include "net/transport.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {

struct BusClientConfig {
  ReliableChannelConfig channel;
  /// Quench on the filter table the bus pushes (suppress publishes no
  /// subscription in the cell matches).
  bool quench = false;
  /// Channel incarnation tag; distinct per (re)join. 0 = derive one from
  /// the transport id (fine for tests; SMC membership supplies real ones).
  std::uint32_t session = 0;
  /// When false the client does not install the transport's receive
  /// handler; the owner (e.g. SmcMember, which muxes the endpoint between
  /// discovery agent and bus client) feeds handle_packet() itself.
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

  /// Invoked after every cleanly applied kInterestUpdate with the current
  /// filter table: a gateway's split-horizon interest table, or the whole
  /// cell's table when the bus quenches.
  using InterestFn = std::function<void(const FilterSet&)>;
  void set_on_interest(InterestFn fn) { on_interest_ = std::move(fn); }

  /// Invoked for every kReplUpdate from the bus (standby members only;
  /// never fires for plain members — the bus only streams replication to
  /// standby-role peers). The receiver owns the ReplMirror and decides when
  /// to request_resync(kReplUpdate).
  using ReplFn = std::function<void(const ReplUpdate&)>;
  void set_on_repl(ReplFn fn) { on_repl_ = std::move(fn); }
  /// The mirror of `stream` (kInterestUpdate or kReplUpdate) lost sync: ask
  /// the bus for a full frame. Control class, like the stream itself.
  AMUSE_AFFINITY(member_executor) void request_resync(BusMsgType stream);

  /// Pre-dispatch delivery filter: runs once per arriving kEvent, before
  /// any handler; return false to drop the event (counted, not silent).
  /// SmcMember installs the origin-stamp re-delivery dedup here.
  using DeliveryFilter = std::function<bool(const Event&)>;
  void set_delivery_filter(DeliveryFilter filter) {
    delivery_filter_ = std::move(filter);
  }

  /// The filter table the bus pushes to this member (quench publishes
  /// against it while synced).
  [[nodiscard]] const InterestMirror& mirror() const { return mirror_; }
  /// Hands the mirror over to a re-homing owner, which carries it into the
  /// next join (DESIGN.md §13); this client is left with an empty one.
  [[nodiscard]] InterestMirror release_mirror() {
    return std::exchange(mirror_, {});
  }
  /// Installs a mirror carried from a previous join. It stays unsynced —
  /// publishes fail open — until the admission update confirms or
  /// replaces it: a stale table must never suppress a wanted event.
  void adopt_mirror(InterestMirror carried) {
    carried.suspend();
    mirror_ = std::move(carried);
  }

  /// Feeds one decoded packet (used when install_receive_handler is false:
  /// the owner's mux has already decoded it).
  AMUSE_AFFINITY(member_executor)
  void handle_packet(ServiceId src, const Packet& packet);

  [[nodiscard]] ServiceId id() const { return transport_->local_id(); }
  [[nodiscard]] ServiceId bus() const { return bus_; }

  struct Stats {
    Counter published;
    Counter quenched;
    Counter pressured_publishes;            // sent while under flow control
    Counter flow_signals;                   // kFlowControl messages received
    Counter events_received;
    Counter handler_invocations;
    Counter interest_updates;             // cleanly applied pushes
    Counter repl_updates;                 // repl stream messages received
    Counter resyncs;                      // resync requests sent, any stream
    Counter deliveries_filtered;            // dropped by the delivery
                                            // filter (origin dedup hits)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ReliableChannelStats& channel_stats() const {
    return channel_->stats();
  }
  /// Events queued towards the bus but not yet acknowledged.
  [[nodiscard]] std::size_t backlog() const {
    return channel_->queued() + channel_->in_flight();
  }

 private:
  AMUSE_AFFINITY(member_executor) void on_message(const SharedBytes& message);
  using Slot = std::pair<std::uint64_t, std::unique_ptr<const Handler>>;
  /// The handler of subscription `id`; null when unsubscribed or unknown.
  [[nodiscard]] const Handler* handler_of(std::uint64_t id) const;

  std::shared_ptr<Transport> transport_;
  ServiceId bus_;
  BusClientConfig config_;
  std::unique_ptr<ReliableChannel> channel_;
  // Live subscriptions in ascending id order. Ids come from a monotonic
  // counter and are never reused (they are on the wire), so subscribe()
  // appends and a lookup is a binary search over contiguous pairs. Each
  // handler lives on the heap, so appending never moves a running one; one
  // unsubscribed while handlers run waits in retired_ until they return.
  std::vector<Slot> handlers_;
  std::vector<std::unique_ptr<const Handler>> retired_;
  int dispatching_ = 0;  // handler calls in progress
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t next_pub_seq_ = 1;
  PressureFn on_pressure_;
  InterestFn on_interest_;
  ReplFn on_repl_;
  DeliveryFilter delivery_filter_;
  bool pressured_ = false;
  InterestMirror mirror_;
  Stats stats_;
  Executor& executor_;
};

}  // namespace amuse
