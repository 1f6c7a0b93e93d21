#include "wire/reliable_channel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace amuse {
namespace {

// Retransmission policy constants: exponential backoff per timeout, capped
// (the cap also bounds the adaptive timeout), and fast retransmit of the
// window head after this many duplicate cumulative acks.
constexpr double kRtoBackoff = 2.0;
constexpr Duration kRtoMax = seconds(5);
constexpr int kDupAckThreshold = 3;

}  // namespace

ReliableChannel::ReliableChannel(Executor& executor, ServiceId self,
                                 ServiceId peer, std::uint32_t session,
                                 ReliableChannelConfig config,
                                 SendFn send, DeliverFn deliver,
                                 FailFn on_fail)
    : executor_(executor),
      self_(self),
      peer_(peer),
      session_(session),
      config_(config),
      send_(std::move(send)),
      deliver_(std::move(deliver)),
      on_fail_(std::move(on_fail)),
      rto_(config.rto_initial),
      retransmit_timer_(executor, [this] { on_timeout(); }),
      ack_timer_(executor, [this] { send_ack_now(); }) {}

ReliableChannel::~ReliableChannel() {
  // Return retained bytes to the bus-wide ledger. Silent (no shed/pressure
  // callbacks): the owner is tearing the channel down and may itself be
  // mid-destruction.
  if (config_.shared_budget) {
    for (const Outbound& o : log_) config_.shared_budget->release(o.payload);
  }
}

std::span<std::uint8_t> SharedPayload::resize_head(std::size_t n) {
  if (n <= kInlineHead) {
    heap_head_.clear();
    inline_len_ = static_cast<std::uint8_t>(n);
    return std::span(inline_head_).first(n);
  }
  inline_len_ = 0;
  heap_head_.resize(n);
  return heap_head_;
}

Bytes SharedPayload::flatten() const {
  BytesView h = head();
  Bytes whole(h.begin(), h.end());
  whole.insert(whole.end(), tail_.begin(), tail_.end());
  return whole;
}

bool ReliableChannel::send(Bytes message, MsgClass cls) {
  return send(SharedPayload(std::move(message)), cls);
}

bool ReliableChannel::send(SharedPayload payload, MsgClass cls) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "ReliableChannel::send");
  std::size_t frag = config_.max_fragment_payload;
  std::size_t total = payload.size();
  std::size_t pieces =
      (frag == 0 || total <= frag) ? 1 : (total + frag - 1) / frag;
  if (cls == MsgClass::kData) {
    // Admission control for data: the legacy count cap, then the byte
    // budget — shed the oldest queued data first to make room, and drop
    // the newcomer only when shedding cannot free enough. Control traffic
    // bypasses both (it is small, rare, and protocol-load-bearing).
    if (queued() + pieces > config_.max_queue) {
      account_shed(total, payload);
      return false;
    }
    if (config_.max_queue_bytes > 0) {
      while (retained_bytes_ + total > config_.max_queue_bytes &&
             shed_oldest_data()) {
      }
      if (retained_bytes_ + total > config_.max_queue_bytes) {
        account_shed(total, payload);
        return false;
      }
    }
  }
  // Control jumps the queued data but stays FIFO among control; data
  // appends.
  std::size_t pos = log_.size();
  if (cls == MsgClass::kControl) {
    ++stats_.control_sent;
    pos = data_start();
    control_end_ = pos + pieces;
  }
  if (pieces == 1) {
    enqueue_at(pos, Outbound{0, std::move(payload), true, cls});
  } else {
    // Fragment: a message too large for one frame is materialised —
    // fragments re-own their slice regardless, so the shared tail saves
    // nothing here. The train enters the log contiguously at `pos`.
    Bytes message = payload.flatten();
    for (std::size_t off = 0; off < message.size(); off += frag) {
      std::size_t len = std::min(frag, message.size() - off);
      bool last = off + len >= message.size();
      Outbound o{last ? std::uint16_t{0} : kFlagMoreFragments,
                 SharedPayload(
                     Bytes(message.begin() + static_cast<std::ptrdiff_t>(off),
                           message.begin() +
                               static_cast<std::ptrdiff_t>(off + len))),
                 /*batchable=*/false, cls};
      ++stats_.fragments_sent;
      enqueue_at(pos++, std::move(o));
    }
  }
  pump(/*flush=*/false);
  update_pressure();
  return true;
}

std::size_t ReliableChannel::data_start() const {
  // A fragment train is never split: a train whose head is already in the
  // window pins the queue front (interleaving a foreign message would
  // corrupt reassembly). Only the window's edge can fall inside a train.
  std::size_t pos = std::max(control_end_, in_flight_);
  while (pos > 0 && pos < log_.size() &&
         (log_[pos - 1].flags & kFlagMoreFragments) != 0) {
    ++pos;
  }
  return pos;
}

void ReliableChannel::enqueue_at(std::size_t pos, Outbound entry) {
  charge_entry(entry);
  if (pos == log_.size()) {
    log_.push_back(std::move(entry));
  } else {
    log_.insert(log_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(entry));
  }
}

bool ReliableChannel::shed_oldest_data() {
  // Head of the oldest data-class message lying wholly in the queue (the
  // peer may already hold the first pieces of a train begun in the window).
  std::size_t start = data_start();
  if (start >= log_.size()) return false;
  // The whole fragment train sheds as one message (it was one send()).
  std::size_t end = start + 1;
  while (end < log_.size() &&
         (log_[end - 1].flags & kFlagMoreFragments) != 0) {
    ++end;
  }
  Bytes whole;
  std::size_t bytes = 0;
  for (std::size_t i = start; i < end; ++i) {
    const SharedPayload& pl = log_[i].payload;
    bytes += pl.size();
    whole.insert(whole.end(), pl.head().begin(), pl.head().end());
    whole.insert(whole.end(), pl.tail().begin(), pl.tail().end());
  }
  for (std::size_t i = start; i < end; ++i) release_entry(log_[i]);
  log_.erase(log_.begin() + static_cast<std::ptrdiff_t>(start),
             log_.begin() + static_cast<std::ptrdiff_t>(end));
  ++stats_.events_shed;
  stats_.bytes_shed += bytes;
  if (on_shed_) on_shed_(whole);
  update_pressure();
  return true;
}

void ReliableChannel::account_shed(std::size_t bytes,
                                   const SharedPayload& payload) {
  ++stats_.events_shed;
  stats_.bytes_shed += bytes;
  if (on_shed_) on_shed_(payload.flatten());
}

void ReliableChannel::charge_entry(const Outbound& entry) {
  retained_bytes_ += entry.payload.size();
  if (config_.shared_budget) config_.shared_budget->charge(entry.payload);
  stats_.peak_retained_bytes.raise_to(retained_bytes_);
}

void ReliableChannel::release_entry(const Outbound& entry) {
  retained_bytes_ -= entry.payload.size();
  if (config_.shared_budget) config_.shared_budget->release(entry.payload);
}

void ReliableChannel::update_pressure() {
  std::size_t high = config_.flow_high_water;
  if (high == 0) return;
  std::size_t low =
      config_.flow_low_water != 0 ? config_.flow_low_water : high / 2;
  if (!pressured_ && retained_bytes_ >= high) {
    pressured_ = true;
    ++stats_.pressure_raised;
    if (on_pressure_) on_pressure_(true);
  } else if (pressured_ && retained_bytes_ <= low) {
    pressured_ = false;
    if (on_pressure_) on_pressure_(false);
  }
}

bool ReliableChannel::coalescing() const {
  return config_.max_batch_messages > 1 && config_.max_batch_bytes > 0;
}

std::size_t ReliableChannel::batch_byte_budget() const {
  std::size_t budget = config_.max_batch_bytes;
  // A coalesced frame must still fit wherever a fragment would: on
  // small-MTU transports the fragment payload is the frame size bound.
  if (config_.max_fragment_payload > 0) {
    budget = std::min(budget, config_.max_fragment_payload);
  }
  return budget;
}

ReliableChannel::FramePlan ReliableChannel::plan_frame(
    std::size_t from) const {
  FramePlan plan;
  if (!coalescing() || !log_[from].batchable) return plan;  // {1, closed}
  const std::size_t end = from < in_flight_ ? in_flight_ : log_.size();
  std::size_t budget = batch_byte_budget();
  std::size_t bytes = 2 + log_[from].payload.size();
  std::size_t count = 1;
  while (from + count < end) {
    const Outbound& next = log_[from + count];
    if (!next.batchable || count >= config_.max_batch_messages) {
      return {count, true};
    }
    std::size_t cost = 2 + next.payload.size();
    if (bytes + cost > budget) return {count, true};
    bytes += cost;
    ++count;
  }
  plan.count = count;
  plan.closed = count >= config_.max_batch_messages || bytes >= budget;
  return plan;
}

void ReliableChannel::emit(const Packet& frame) {
  if (frame_bytes_.size() == round_frames_) frame_bytes_.emplace_back();
  frame.encode_to(frame_bytes_[round_frames_++]);
}

void ReliableChannel::flush_round() {
  if (round_frames_ == 0) return;
  round_.clear();
  for (std::size_t i = 0; i < round_frames_; ++i) {
    round_.push_back(Transport::Datagram{peer_, frame_bytes_[i]});
  }
  if (round_frames_ >= 2) ++stats_.frame_bursts;
  round_frames_ = 0;
  send_(round_);
}

void ReliableChannel::pump(bool flush) {
  while (in_flight_ < log_.size() && in_flight_ < config_.window) {
    FramePlan plan = plan_frame(in_flight_);
    // Nagle-style hold: a partial batch waits for more data while earlier
    // frames are in flight — the returning ack flushes it.
    if (!flush && !plan.closed && in_flight_ != 0) break;
    std::size_t count = std::min(plan.count, config_.window - in_flight_);
    std::size_t frame_start = in_flight_;
    in_flight_ += count;
    stats_.messages_sent += count;
    if (!failed_) {
      transmit_range(frame_start, count);
      // First transmission of a fresh frame: candidate RTT sample.
      if (!rtt_pending_) {
        rtt_pending_ = true;
        rtt_seq_ = base_ + static_cast<std::uint32_t>(frame_start);
        rtt_sent_ = executor_.now();
      }
    }
  }
  flush_round();
  if (in_flight_ != 0 && !failed_) arm_timer();
}

void ReliableChannel::transmit_range(std::size_t from, std::size_t count) {
  // frame_ is reused: its batch keeps its capacity.
  Packet& p = frame_;
  p.type = PacketType::kData;
  p.session = session_;
  p.src = self_;
  p.dst = peer_;
  p.seq = base_ + static_cast<std::uint32_t>(from);
  p.ack = expected_;  // piggyback the cumulative ack
  p.batch.clear();
  // The shared tails stay by reference right up to frame assembly; the
  // Outbound entries keep the bytes alive while the frame is encoded.
  p.flags = count <= 1 ? log_[from].flags : kFlagBatched;
  for (std::size_t i = 0; i < count; ++i) {
    const SharedPayload& pl = log_[from + i].payload;
    p.batch.push_back(Packet::Sub{pl.head(), pl.tail().view()});
  }
  if (count > 1) {
    ++stats_.batches_sent;
    stats_.batched_messages += count;
  }
  record_wire(p.payload_wire_size());
  clear_ack_debt();  // the frame carries our cumulative ack
  emit(p);
}

void ReliableChannel::transmit_window(bool count_as_retransmission) {
  for (std::size_t i = 0; i < in_flight_;) {
    std::size_t count = plan_frame(i).count;
    if (count_as_retransmission) stats_.retransmissions += count;
    transmit_range(i, count);
    i += count;
  }
  flush_round();
}

void ReliableChannel::send_ack() {
  Packet p;
  p.type = PacketType::kAck;
  p.session = session_;
  p.src = self_;
  p.dst = peer_;
  p.ack = expected_;
  ++stats_.acks_sent;
  record_wire(0);
  emit(p);
  flush_round();
}

void ReliableChannel::send_ack_now() {
  ack_timer_.cancel();
  ack_debt_ = 0;
  send_ack();
}

void ReliableChannel::note_in_order_frame() {
  if (config_.ack_delay == Duration{}) {
    send_ack_now();
    return;
  }
  if (++ack_debt_ >= 2) {  // RFC 1122: ack at least every second frame
    send_ack_now();
    return;
  }
  ++stats_.acks_delayed;
  if (!ack_timer_.armed()) ack_timer_.arm_after(config_.ack_delay);
}

void ReliableChannel::note_duplicate_frame() {
  if (config_.ack_delay == Duration{}) {
    send_ack_now();
    return;
  }
  // A go-back-N burst of stale duplicates (our acks were lost) must not
  // answer datagram-for-datagram: ride one timer, send one ack.
  ++stats_.acks_delayed;
  if (!ack_timer_.armed()) ack_timer_.arm_after(config_.ack_delay);
}

void ReliableChannel::clear_ack_debt() {
  ack_debt_ = 0;
  ack_timer_.cancel();
}

void ReliableChannel::record_wire(std::size_t payload_bytes) {
  ++stats_.datagrams_sent;
  stats_.bytes_on_wire += Packet::kOverhead + payload_bytes;
}

void ReliableChannel::arm_timer() {
  if (!retransmit_timer_.armed()) retransmit_timer_.arm_after(rto_);
}

void ReliableChannel::on_timeout() {
  if (in_flight_ == 0 || failed_) return;
  if (retries_ >= config_.max_retries) {
    failed_ = true;
    if (on_fail_) on_fail_();
    return;
  }
  ++retries_;
  rto_ = std::min(
      Duration(static_cast<std::int64_t>(
          static_cast<double>(rto_.count()) * kRtoBackoff)),
      kRtoMax);
  // Karn's rule: a retransmitted message cannot yield an RTT sample.
  rtt_pending_ = false;
  // Go-back-N: retransmit the whole window (re-coalesced — the batch
  // budget amortises the retransmission burst too).
  transmit_window(/*count_as_retransmission=*/true);
  arm_timer();
}

Duration ReliableChannel::base_rto() const {
  if (!have_srtt_) return config_.rto_initial;
  Duration rto(static_cast<std::int64_t>(srtt_ns_ + 4.0 * rttvar_ns_));
  return std::clamp(rto, config_.rto_min, kRtoMax);
}

void ReliableChannel::take_rtt_sample(Duration sample) {
  double s = static_cast<double>(sample.count());
  if (!have_srtt_) {
    srtt_ns_ = s;
    rttvar_ns_ = s / 2.0;
    have_srtt_ = true;
  } else {
    rttvar_ns_ = 0.75 * rttvar_ns_ + 0.25 * std::abs(srtt_ns_ - s);
    srtt_ns_ = 0.875 * srtt_ns_ + 0.125 * s;
  }
}

void ReliableChannel::poke() {
  if (!failed_) return;
  failed_ = false;
  retries_ = 0;
  rto_ = base_rto();
  transmit_window(/*count_as_retransmission=*/false);
  pump();
  if (in_flight_ != 0) arm_timer();
}

void ReliableChannel::reset() {
  retransmit_timer_.cancel();
  for (const Outbound& o : log_) release_entry(o);
  log_.clear();
  control_end_ = 0;
  // Keep seqs monotonic within this session so a reset sender can't
  // collide with sequence numbers the peer may already have buffered.
  base_ += static_cast<std::uint32_t>(in_flight_);
  in_flight_ = 0;
  retries_ = 0;
  rto_ = base_rto();
  rtt_pending_ = false;
  failed_ = false;
  update_pressure();
}

void ReliableChannel::on_packet(const Packet& packet) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "ReliableChannel::on_packet");
  if (packet.src != peer_) return;
  switch (packet.type) {
    case PacketType::kData:
      handle_data(packet);
      // DATA also piggybacks the peer's cumulative ack of our stream.
      handle_ack(packet);
      break;
    case PacketType::kAck:
      handle_ack(packet);
      break;
    default:
      break;
  }
}

void ReliableChannel::handle_data(const Packet& packet) {
  // Validate a batched payload before touching any state: a malformed
  // batch (possible only on hand-fed packets — decode() validates wire
  // frames) must not adopt a session or advance ordering.
  const bool batched = (packet.flags & kFlagBatched) != 0;
  std::size_t sub_count = 1;
  std::uint16_t sub_flags = packet.flags;
  if (batched) {
    std::optional<std::size_t> n = Packet::batch_count(packet.payload);
    if (!n) {
      ++stats_.malformed_batch_dropped;
      return;
    }
    sub_count = *n;
    sub_flags = packet.flags & static_cast<std::uint16_t>(~kFlagBatched);
  }
  // The sub-messages are walked in place, front to back, each sharing
  // the frame's buffer.
  BytesView rest = packet.payload.view();
  auto next_sub = [&] {
    return batched ? packet.payload.slice(Packet::next_sub(rest))
                   : packet.payload;
  };
  // The frame covers seqs [packet.seq, packet.seq + count) — one message
  // per sub. Range arithmetic in 64 bits so a forged seq near the top of
  // u32 cannot wrap.
  const auto count = static_cast<std::uint64_t>(sub_count);
  const auto first = static_cast<std::uint64_t>(packet.seq);

  // Session handling: adopt a new peer incarnation only at its seq 0, and
  // only if the session clears the configured floor — a fresh receiver must
  // not mistake a stale retransmission of a purged incarnation's first
  // frame for its own new stream.
  if (!peer_session_known_ || packet.session != peer_session_) {
    if (packet.seq != 0 || packet.session < config_.min_peer_session) {
      ++stats_.stale_session_dropped;
      return;
    }
    peer_session_known_ = true;
    peer_session_ = packet.session;
    expected_ = 0;
    reorder_.clear();
    reassembly_.clear();
    reassembling_ = false;
    discarding_ = false;
  }

  if (first + count <= expected_) {
    // Duplicate of something already delivered in full: re-ack (delayed —
    // a retransmitted go-back-N window must not trigger an ack burst).
    ++stats_.duplicates_dropped;
    note_duplicate_frame();
    return;
  }
  if (first <= expected_) {
    // In order, possibly overlapping already-delivered seqs at the front
    // of a partially acked batch: deliver only the unseen tail.
    std::size_t skip = expected_ - first;
    stats_.duplicates_dropped += skip;
    for (std::size_t i = 0; i < sub_count; ++i) {
      SharedBytes sub = next_sub();
      if (i < skip) continue;
      ++expected_;
      deliver_or_reassemble(sub_flags, sub);
    }
    // Drain any buffered successors.
    auto it = reorder_.begin();
    while (it != reorder_.end() && it->first == expected_) {
      ++expected_;
      auto [flags, msg] = std::move(it->second);
      it = reorder_.erase(it);
      deliver_or_reassemble(flags, msg);
    }
    note_in_order_frame();
    return;
  }
  // Out of order: buffer each sub-message at its own seq unless it's a
  // duplicate or the buffer is full, then ack immediately — duplicate
  // cumulative acks are the sender's fast-retransmit signal.
  for (std::size_t i = 0; i < sub_count; ++i) {
    auto seq = static_cast<std::uint32_t>(first + i);
    SharedBytes sub = next_sub();
    if (reorder_.size() < config_.max_reorder && !reorder_.contains(seq)) {
      ++stats_.out_of_order_buffered;
      reorder_.emplace(seq, std::make_pair(sub_flags, std::move(sub)));
    } else {
      ++stats_.duplicates_dropped;
    }
  }
  send_ack_now();
}

void ReliableChannel::deliver_or_reassemble(std::uint16_t flags,
                                            const SharedBytes& payload) {
  bool more = (flags & kFlagMoreFragments) != 0;
  if (discarding_) {
    // An earlier fragment of this message overflowed: swallow the rest.
    if (!more) discarding_ = false;
    return;
  }
  if (!more && !reassembling_) {
    // The common case: an unfragmented message.
    ++stats_.messages_delivered;
    if (deliver_) deliver_(payload);
    return;
  }
  if (reassembly_.size() + payload.size() > config_.max_reassembly_bytes) {
    ++stats_.reassembly_overflow_dropped;
    reassembly_.clear();
    reassembling_ = false;
    discarding_ = more;  // skip this message's remaining fragments
    return;
  }
  reassembly_.insert(reassembly_.end(), payload.begin(), payload.end());
  reassembling_ = more;
  if (!more) {
    ++stats_.messages_delivered;
    ++stats_.messages_reassembled;
    SharedBytes whole(std::move(reassembly_));
    reassembly_ = Bytes{};
    if (deliver_) deliver_(whole);
  }
}

void ReliableChannel::handle_ack(const Packet& packet) {
  std::uint32_t acked = packet.ack;
  if (acked == base_ && in_flight_ != 0 && !failed_) {
    // Duplicate cumulative ack: the peer is receiving our later messages
    // past a hole. Fast-retransmit the window head without waiting for the
    // (possibly heavily backed-off) timer.
    if (++dup_acks_ >= kDupAckThreshold) {
      dup_acks_ = 0;
      ++stats_.fast_retransmits;
      if (rtt_pending_ && rtt_seq_ == base_) {
        rtt_pending_ = false;  // Karn: head is being retransmitted
      }
      transmit_range(0, 1);
      flush_round();
    }
    return;
  }
  if (acked <= base_) return;  // stale
  // Nonsense (corrupt peer): an ack past the window.
  if (acked - base_ > in_flight_) return;
  dup_acks_ = 0;
  // The acked prefix of the window leaves the log.
  const std::size_t n = acked - base_;
  for (std::size_t i = 0; i < n; ++i) {
    release_entry(log_.front());
    log_.pop_front();
  }
  in_flight_ -= n;
  control_end_ -= std::min(control_end_, n);
  base_ = acked;
  bool sampled = false;
  if (rtt_pending_ && acked > rtt_seq_) {
    take_rtt_sample(executor_.now() - rtt_sent_);
    rtt_pending_ = false;
    sampled = true;
  }
  retries_ = 0;
  // RFC 6298 §5.7: after a retransmission, keep the backed-off RTO until a
  // *fresh* RTT sample arrives (Karn's rule invalidates samples from
  // retransmitted messages, so resetting here on every ack would let a
  // stale, small SRTT sustain a retransmission storm under load).
  if (sampled || rto_ < base_rto()) {
    rto_ = base_rto();
  }
  retransmit_timer_.cancel();
  if (failed_) {
    failed_ = false;  // the peer is evidently alive again
  }
  pump();
  if (in_flight_ != 0) arm_timer();
  update_pressure();
}

}  // namespace amuse
