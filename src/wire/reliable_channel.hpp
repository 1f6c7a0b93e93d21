// ReliableChannel: per-peer reliable, ordered, exactly-once message delivery
// over the unreliable datagram transport.
//
// This is the mechanism behind the paper's delivery semantics (§II-C):
//   - "all events are delivered to each interested component exactly once as
//      long as the component remains a member" — the receiver half dedups
//      and never delivers a sequence number twice;
//   - "all events from a particular sender are delivered … in the order
//      sent" — in-order delivery with a bounded reorder buffer;
//   - "events are always acknowledged … so that events cannot be lost in
//      transit" (§III-B) — cumulative ACKs, go-back-N retransmission with
//      exponential backoff, bounded retries reporting peer failure.
//
// Sessions: each channel incarnation carries a random session id in every
// frame. A receiver adopts a new peer session only at seq 0, so stale
// packets from a purged-and-readmitted service's previous life are ignored
// rather than corrupting ordering state.
//
// Datagram economy: the paper's bus host pays a fixed CPU cost per datagram
// (§V, Fig. 4b), so the channel amortises it two ways — queued small
// messages coalesce into one kFlagBatched DATA frame (ack-clocked,
// Nagle-style), and ACKs are delayed briefly so one ack covers several
// frames or piggybacks on reverse DATA. Both are config knobs; disabled
// they reproduce the original one-frame-per-message, ack-per-DATA wire
// behaviour exactly. See DESIGN.md §8.
//
// Overload: outbound retention is accounted in bytes against a per-peer
// budget and an optional bus-wide DeliveryBudget ledger. send() takes a
// message class — control (subscriptions, filter tables, membership) is never
// shed and queues ahead of data; data beyond the budget sheds the oldest
// queued data-class message first, every shed counted and reported through
// the shed callback. Watermarks on retained bytes drive a pressure
// callback for publisher backpressure. See DESIGN.md §9.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/metrics.hpp"
#include "common/service_id.hpp"
#include "net/transport.hpp"
#include "sim/executor.hpp"
#include "sim/timer.hpp"
#include "wire/delivery_budget.hpp"
#include "wire/packet.hpp"

namespace amuse {

/// Priority class of an outbound message. Control messages (subscriptions,
/// unsubscriptions, filter tables, flow control, membership traffic) are
/// small, rare, and load-bearing for protocol correctness: they are never
/// shed, never counted against the queue bounds, and are queued ahead of
/// data-class traffic (without ever splitting a fragment train or touching
/// in-flight messages). Data is the bulk sensor/event traffic the shed
/// policy may drop under overload.
enum class MsgClass : std::uint8_t {
  kData = 0,
  kControl = 1,
};

struct ReliableChannelConfig {
  /// First retransmission timeout, used until an RTT sample arrives. The
  /// timeout then adapts to measured round-trip times (RFC 6298-style
  /// SRTT/RTTVAR with Karn's rule: samples from retransmitted messages are
  /// discarded), which matters on slow hosts where end-to-end times vary
  /// with payload size.
  Duration rto_initial = milliseconds(200);
  /// Floor for the adaptive timeout. Generous for this domain: end-to-end
  /// times through a PDA-class bus host are tens to hundreds of ms and
  /// grow under load.
  Duration rto_min = milliseconds(200);
  /// Consecutive retransmissions of the oldest unacked message before the
  /// channel reports failure. The discovery service, not this layer,
  /// decides when a silent member is purged; failure here just pauses the
  /// channel (the proxy keeps the queue until a Purge Member event).
  int max_retries = 12;
  /// Go-back-N send window (messages in flight without an ack).
  std::size_t window = 8;
  /// Bound on the outbound queue (send() fails beyond it).
  std::size_t max_queue = 4096;
  /// Bound on the receive-side reorder buffer.
  std::size_t max_reorder = 64;
  /// Split messages larger than this into fragments of at most this many
  /// bytes (0 = never fragment). Needed on small-MTU transports like
  /// 802.15.4/ZigBee, one of the paper's target radios (§VI): a frame is
  /// max_fragment_payload + Packet::kOverhead bytes on the wire.
  std::size_t max_fragment_payload = 0;
  /// Bound on a partially reassembled inbound message.
  std::size_t max_reassembly_bytes = 1 << 20;
  /// Frame coalescing: while earlier data is in flight, queued whole (never
  /// fragmented) messages are packed into one kFlagBatched DATA frame, up
  /// to this many sub-messages per frame. The per-packet host cost then
  /// amortises across the batch (the PDA profile charges 8.2 ms per
  /// datagram regardless of size). 0 or 1 disables batching: every message
  /// gets its own frame, byte-identical to the legacy format.
  std::size_t max_batch_messages = 16;
  /// Payload byte budget for a coalesced frame (sub-message bytes plus
  /// their u16 length prefixes), capped by max_fragment_payload when
  /// fragmentation is on — that cap is the per-transport MTU bound (e.g.
  /// ZigBee's 700 B), so the default only governs transports that take
  /// multi-KB datagrams (UDP, the simulated links) and is sized to fit a
  /// full send window of mid-size events per frame while bounding the
  /// loss blast radius of one datagram. 0 disables batching. A single
  /// message over the budget travels alone in a legacy frame.
  std::size_t max_batch_bytes = 8192;
  /// Delayed ACKs (RFC 1122-style): an in-order DATA frame is acked
  /// immediately only if it is the second unacknowledged frame; otherwise
  /// the ack waits this long for a chance to coalesce with the next frame
  /// or piggyback on outgoing DATA. Out-of-order arrivals are always acked
  /// immediately (they are the sender's fast-retransmit clock), and a
  /// burst of stale duplicates yields at most one delayed ack.
  /// Duration{} disables: every DATA frame is acked on arrival (legacy).
  Duration ack_delay = milliseconds(2);
  /// Refuse to adopt a peer session below this floor. Seq-0 adoption alone
  /// cannot tell a genuine new stream from a stale retransmission of an old
  /// stream's first frame (a purged proxy's queue head is seq 0 when nothing
  /// was ever acked, and it races the rejoin handshake). The bus hands out
  /// monotonically increasing proxy sessions, and membership tells the
  /// device the session its new proxy will use — so a receiver created for
  /// incarnation N can reject every frame from incarnations < N outright.
  /// 0 = accept any session at seq 0 (legacy / first contact).
  std::uint32_t min_peer_session = 0;
  /// Per-peer retained-byte budget: payload bytes across the outbound queue
  /// and the in-flight window. A data-class send that would exceed it sheds
  /// the oldest queued data-class message(s) to make room, and is itself
  /// shed when shedding cannot free enough. Control-class messages are
  /// exempt. 0 = unlimited (legacy count-cap behaviour only).
  std::size_t max_queue_bytes = 0;
  /// Flow-control watermarks on retained bytes: crossing the high water
  /// raises pressure (PressureFn fires with true); draining to the low
  /// water releases it. 0 disables pressure signalling.
  std::size_t flow_high_water = 0;
  /// 0 = flow_high_water / 2.
  std::size_t flow_low_water = 0;
  /// Optional bus-wide ledger shared by every proxy channel; charged and
  /// released entry-by-entry (shared event bodies counted once across the
  /// whole fan-out). The budget's owner (EventBus) enforces the bus-wide
  /// limit by picking shed victims across channels.
  std::shared_ptr<DeliveryBudget> shared_budget;
};

/// One outbound message assembled from an owned per-message head and an
/// optional shared immutable tail (the fan-out's event body). The channel
/// queues and retransmits the tail by reference — the bytes are never
/// re-owned or copied per member; they are only blitted into the datagram
/// frame at transmit time. A short head (a bus message's per-member
/// header) is kept inline, so queueing one costs no heap allocation.
class SharedPayload {
 public:
  /// Heads up to this many bytes are stored inline: a kEvent header with
  /// four matched ids, or one with an origin stamp. Kept small because
  /// every queued entry carries it.
  static constexpr std::size_t kInlineHead = 38;

  SharedPayload() = default;
  /// A message of `head` followed by the shared `tail`.
  explicit SharedPayload(Bytes head, SharedBytes tail = {})
      : tail_(std::move(tail)), heap_head_(std::move(head)) {}
  /// A message whose head is still to be written (resize_head()).
  explicit SharedPayload(SharedBytes tail) : tail_(std::move(tail)) {}

  /// Sizes the head to `n` bytes (inline when they fit) and returns them
  /// for writing.
  std::span<std::uint8_t> resize_head(std::size_t n);

  [[nodiscard]] BytesView head() const {
    return inline_len_ != 0 ? BytesView(inline_head_.data(), inline_len_)
                            : BytesView(heap_head_);
  }
  [[nodiscard]] const SharedBytes& tail() const { return tail_; }
  [[nodiscard]] std::size_t size() const {
    return head().size() + tail_.size();
  }
  /// Materialises head+tail into one owned buffer (fragmentation path).
  [[nodiscard]] Bytes flatten() const;

 private:
  SharedBytes tail_;
  Bytes heap_head_;
  std::uint8_t inline_len_ = 0;
  std::array<std::uint8_t, kInlineHead> inline_head_{};
};

struct ReliableChannelStats {
  Counter messages_sent;
  Counter messages_delivered;
  Counter retransmissions;
  Counter fast_retransmits;
  Counter duplicates_dropped;
  Counter out_of_order_buffered;
  Counter acks_sent;
  Counter stale_session_dropped;
  Counter fragments_sent;
  Counter messages_reassembled;
  Counter reassembly_overflow_dropped;
  // Wire-level accounting (what the host is actually charged for).
  Counter datagrams_sent;             // DATA + ACK frames handed down
  Counter bytes_on_wire;              // encoded frame bytes incl. overhead
  Counter batches_sent;               // DATA frames carrying ≥ 2 messages
  Counter batched_messages;           // messages inside those frames
  Counter acks_delayed;               // ack requests deferred to the timer
  Counter frame_bursts;               // sink calls carrying ≥ 2 frames
  Counter malformed_batch_dropped;            // bad sub-lengths in a batch
  // Overload accounting (DESIGN.md §9): drops are counted, never silent.
  Counter events_shed;                // data-class messages dropped
  Counter bytes_shed;                 // payload bytes of those messages
  Counter control_sent;               // control-class messages accepted
  Counter peak_retained_bytes;            // high-water of retained bytes
  Counter pressure_raised;            // high-water crossings signalled
};

class ReliableChannel {
 public:
  /// The channel's one egress path. Every frame it emits is encoded into
  /// channel-owned buffers and handed over in rounds: a pump or retransmit
  /// round's DATA frames, a single-frame round, a fast retransmit or an
  /// ACK, each as one call, in wire order. The views are valid only for
  /// the call; the sink must not re-enter the channel.
  using SendFn = std::function<void(std::span<const Transport::Datagram>)>;
  /// Exactly-once, in-order message delivery to the layer above. The
  /// message shares the received frame's buffer (a reassembled one, its
  /// own), so a body decoded from it can outlive the call without a copy.
  using DeliverFn = std::function<void(const SharedBytes& message)>;
  /// Retries exhausted for the oldest in-flight message. The channel stops
  /// retransmitting until poke() or a packet from the peer arrives.
  using FailFn = std::function<void()>;
  /// A data-class message was shed (budget or queue-cap exhaustion). The
  /// view is the flattened message payload, valid only for the call.
  using ShedFn = std::function<void(BytesView message)>;
  /// Retained bytes crossed the high watermark (true) or drained back to
  /// the low watermark (false).
  using PressureFn = std::function<void(bool under_pressure)>;

  ReliableChannel(Executor& executor, ServiceId self, ServiceId peer,
                  std::uint32_t session, ReliableChannelConfig config,
                  SendFn send, DeliverFn deliver,
                  FailFn on_fail = nullptr);
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Queues one message for reliable delivery. Data-class sends return
  /// false (and count the message as shed) when the queue bounds are hit;
  /// control-class sends are always accepted and jump ahead of queued data.
  AMUSE_AFFINITY(owner_executor)
  bool send(Bytes message, MsgClass cls = MsgClass::kData);
  /// As send(Bytes), but the shared tail bytes are queued by reference and
  /// only copied into the wire frame (or into fragments) at transmit time.
  AMUSE_AFFINITY(owner_executor)
  bool send(SharedPayload payload, MsgClass cls = MsgClass::kData);

  /// Installs the shed-accounting tap (fired for every dropped data-class
  /// message, whether displaced from the queue or rejected on entry).
  void set_on_shed(ShedFn fn) { on_shed_ = std::move(fn); }
  /// Installs the watermark pressure tap.
  void set_on_pressure(PressureFn fn) { on_pressure_ = std::move(fn); }

  /// Sheds the oldest queued data-class message (a whole fragment train
  /// counts as one message). In-flight messages are never touched — the
  /// peer may already hold part of the window. Returns false when nothing
  /// in the queue is data-class. Public so the bus-wide budget owner can
  /// pick shed victims across channels.
  AMUSE_AFFINITY(owner_executor) bool shed_oldest_data();

  /// Feed every DATA/ACK packet from this peer here.
  AMUSE_AFFINITY(owner_executor) void on_packet(const Packet& packet);

  /// Restart retransmission after a failure report (e.g. the discovery
  /// service saw a heartbeat again before the purge timeout).
  AMUSE_AFFINITY(owner_executor) void poke();

  /// Drops all queued and in-flight outbound data and stops timers — the
  /// paper's proxy behaviour on "Purge Member": destroy "any outbound data
  /// awaiting delivery".
  AMUSE_AFFINITY(owner_executor) void reset();

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t queued() const { return log_.size() - in_flight_; }
  /// Payload bytes retained across the queue and the in-flight window.
  [[nodiscard]] std::size_t retained_bytes() const { return retained_bytes_; }
  /// True between a high-watermark crossing and the low-watermark drain.
  [[nodiscard]] bool under_pressure() const { return pressured_; }
  [[nodiscard]] bool failed() const { return failed_; }
  /// Smoothed round-trip time; zero until the first sample.
  [[nodiscard]] Duration srtt() const {
    return Duration(static_cast<std::int64_t>(srtt_ns_));
  }
  [[nodiscard]] const ReliableChannelStats& stats() const { return stats_; }
  [[nodiscard]] ServiceId peer() const { return peer_; }
  [[nodiscard]] std::uint32_t session() const { return session_; }

 private:
  /// A message (or one fragment of one) in the outbound log. Its seq is
  /// not stored: it is base_ plus its position in the log.
  struct Outbound {
    std::uint16_t flags;
    SharedPayload payload;
    bool batchable = true;  // false for fragments: never coalesced
    MsgClass cls = MsgClass::kData;
  };

  /// How many entries starting at `from` fit in the next frame. `closed`
  /// is false only when the run ended because the queue ran out before any
  /// budget did — i.e. a partial batch that may be worth holding for.
  struct FramePlan {
    std::size_t count = 1;
    bool closed = true;
  };

  [[nodiscard]] bool coalescing() const;
  [[nodiscard]] std::size_t batch_byte_budget() const;
  /// Plans the frame starting at log_[from]. A frame never straddles the
  /// window's edge: it coalesces within the window when retransmitting and
  /// within the queue when pumping.
  [[nodiscard]] FramePlan plan_frame(std::size_t from) const;
  /// Advances the window over queued entries and transmits them, coalescing
  /// where the budgets allow. With flush=false (the send() path) a partial
  /// batch is held back while earlier data is in flight — the ack clock
  /// flushes it (Nagle-style); flush=true sends everything that fits.
  void pump(bool flush = true);
  /// Frames log_[from, from+count), seqs from base_ + from, as one DATA
  /// frame and emits it.
  void transmit_range(std::size_t from, std::size_t count);
  /// Encodes `frame` as the next datagram of the round being built.
  void emit(const Packet& frame);
  /// Hands the round to the sink as one call. Whatever emits a frame
  /// (pump, transmit_window, a fast retransmit, send_ack) flushes before
  /// it returns, so a round never outlives the call that built it.
  void flush_round();
  /// Go-back-N: retransmits the whole window, re-coalescing as it goes.
  void transmit_window(bool count_as_retransmission);
  void send_ack();
  /// Sends the cumulative ack now, cancelling any pending delayed ack.
  void send_ack_now();
  /// Delayed-ack bookkeeping for an in-order DATA frame (ack every second
  /// frame immediately, otherwise after ack_delay).
  void note_in_order_frame();
  /// A stale duplicate wants re-acking, but at most once per burst: arm
  /// (or ride) the delay timer without advancing the every-2nd counter.
  void note_duplicate_frame();
  /// Outgoing DATA piggybacks the cumulative ack: nothing left to delay.
  void clear_ack_debt();
  void record_wire(std::size_t payload_bytes);
  /// Retention accounting: every entry entering/leaving log_ passes
  /// through exactly one of these.
  void charge_entry(const Outbound& entry);
  void release_entry(const Outbound& entry);
  /// The first log position queued data may hold: past the window, past
  /// the queued control, and past the rest of a fragment train whose head
  /// is in the window. A control send enters here; a shed starts here.
  [[nodiscard]] std::size_t data_start() const;
  /// Charges `entry` and inserts it at log_[pos].
  void enqueue_at(std::size_t pos, Outbound entry);
  /// Counts a dropped data-class message and fires the shed tap.
  void account_shed(std::size_t bytes, const SharedPayload& payload);
  /// Fires the pressure tap on watermark transitions of retained_bytes_.
  void update_pressure();
  void arm_timer();
  void on_timeout();
  void handle_data(const Packet& packet);
  void handle_ack(const Packet& packet);
  void take_rtt_sample(Duration sample);
  [[nodiscard]] Duration base_rto() const;

  Executor& executor_;
  ServiceId self_;
  ServiceId peer_;
  std::uint32_t session_;
  ReliableChannelConfig config_;
  SendFn send_;
  // Egress: frames are encoded as they are emitted into frame_bytes_[0,
  // round_frames_), which keep their capacity from round to round;
  // round_ holds the views handed to the sink.
  Packet frame_;  // the DATA frame being assembled, reused
  std::vector<Bytes> frame_bytes_;
  std::size_t round_frames_ = 0;
  std::vector<Transport::Datagram> round_;
  DeliverFn deliver_;
  FailFn on_fail_;
  ShedFn on_shed_;
  PressureFn on_pressure_;

  // Sender state: one log of everything not yet acked. Its first
  // in_flight_ entries are the window, seqs [base_, base_ + in_flight_);
  // the rest are queued, control ahead of data.
  std::deque<Outbound> log_;
  std::size_t in_flight_ = 0;
  std::uint32_t base_ = 0;       // seq of log_[0], the oldest unacked
  // Just past the last control piece queued; lowered as acks drop the
  // log's prefix, so it never falls inside a fragment train.
  std::size_t control_end_ = 0;
  Duration rto_;
  int retries_ = 0;
  int dup_acks_ = 0;
  Timer retransmit_timer_;
  bool failed_ = false;
  std::size_t retained_bytes_ = 0;  // payload bytes in log_
  bool pressured_ = false;

  // RTT estimation (one outstanding sample; Karn's rule).
  bool rtt_pending_ = false;
  std::uint32_t rtt_seq_ = 0;
  TimePoint rtt_sent_{};
  double srtt_ns_ = 0.0;
  double rttvar_ns_ = 0.0;
  bool have_srtt_ = false;

  void deliver_or_reassemble(std::uint16_t flags, const SharedBytes& payload);

  // Receiver state.
  bool peer_session_known_ = false;
  std::uint32_t peer_session_ = 0;
  std::uint32_t expected_ = 0;  // next sequence to deliver
  std::map<std::uint32_t, std::pair<std::uint16_t, SharedBytes>> reorder_;
  // Delayed-ack state: frames delivered since the last ack we sent (ours
  // or piggybacked), and the coalescing timer.
  int ack_debt_ = 0;
  Timer ack_timer_;
  Bytes reassembly_;  // accumulated fragments of the in-progress message
  bool reassembling_ = false;
  bool discarding_ = false;  // skipping the rest of an overflowed message

  ReliableChannelStats stats_;
};

}  // namespace amuse
