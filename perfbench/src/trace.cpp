#include "trace.hpp"

#include <atomic>
#include <cstdio>

#include "bus/messages.hpp"
#include "wire/packet.hpp"

namespace perfbench {

using amuse::BusMessage;
using amuse::BusMsgType;
using amuse::BytesView;
using amuse::Packet;
using amuse::PacketType;

namespace {

std::atomic<std::uint64_t> g_generation{0};

struct TlsSlot {
  std::uint64_t generation = 0;
  ThreadTrace* trace = nullptr;
};
thread_local TlsSlot tls_slot;

std::uint64_t channel_key(std::uint64_t src, std::uint64_t dst,
                          std::uint32_t session) {
  std::uint64_t k = src * 0x9e3779b97f4a7c15ULL;
  k ^= dst + 0x632be59bd9b4e019ULL + (k << 6) + (k >> 2);
  k ^= static_cast<std::uint64_t>(session) * 0xff51afd7ed558ccdULL;
  return k;
}

std::uint64_t be(BytesView b, std::size_t at, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v = (v << 8) | b[at + i];
  return v;
}

/// The fixed header of a frame, read in place (layout in wire/packet.hpp).
struct FrameHeader {
  PacketType type;
  std::uint16_t flags;
  std::uint64_t channel;  // channel_key(src, dst, session)
  std::uint32_t seq;
  BytesView payload;
};

/// Parses the header without the CRC check or the payload copy that
/// Packet::decode makes, so every frame can be counted cheaply; nullopt for
/// datagrams that are not frames.
std::optional<FrameHeader> frame_header(BytesView d) {
  if (d.size() < Packet::kOverhead || be(d, 0, 2) != Packet::kMagic) {
    return std::nullopt;
  }
  std::size_t len = be(d, 30, 2);
  if (32 + len + 4 > d.size()) return std::nullopt;
  auto session = static_cast<std::uint32_t>(be(d, 6, 4));
  return FrameHeader{static_cast<PacketType>(d[3]),
                     static_cast<std::uint16_t>(be(d, 4, 2)),
                     channel_key(be(d, 10, 6), be(d, 16, 6), session),
                     static_cast<std::uint32_t>(be(d, 22, 4)),
                     d.subspan(32, len)};
}

/// The event's benchmark key, or 0 when it carries none (discovery and
/// other non-benchmark traffic).
std::uint64_t key_of(const amuse::Event& e) {
  std::int64_t pub = e.get_int("pub", -1);
  std::int64_t pseq = e.get_int("pseq", -1);
  if (pub < 0 || pseq < 0) return 0;
  bool derived = e.type().starts_with("alarm.");
  return event_key(static_cast<std::uint32_t>(pub),
                   static_cast<std::uint32_t>(pseq), derived);
}

/// Sub-messages of a DATA frame (empty for fragments, which carry no whole
/// message).
std::vector<BytesView> messages_of(const Packet& p) {
  if (p.flags & amuse::kFlagMoreFragments) return {};
  if (p.flags & amuse::kFlagBatched) {
    auto parts = Packet::split_batch(p.payload);
    return parts ? *parts : std::vector<BytesView>{};
  }
  return {BytesView(p.payload)};
}

void run_traced(amuse::Task& fn, std::int64_t post_ns, Domain domain) {
  Tracer* tr = Tracer::active();
  if (tr == nullptr) {
    fn();
    return;
  }
  ThreadTrace& tt = tr->local();
  std::int64_t prev = tt.cur_post_ns;
  tt.cur_post_ns = post_ns;
  {
    ScopedSpan span(tt, SpanKind::kTask);
    if (post_ns != 0 && tt.qwait_us.size() < Tracer::kMaxQwait) {
      tt.qwait_us.push_back(static_cast<float>(span.start() - post_ns) /
                            1000.0f);
    }
    fn();
    auto d = static_cast<std::size_t>(domain);
    tt.busy_ns[d] += span.close();
  }
  tt.cur_post_ns = prev;
}

}  // namespace

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kStep: return "sim.step";
    case SpanKind::kTask: return "sim.task";
    case SpanKind::kRecvCore: return "net.recv.core";
    case SpanKind::kRecvDisco: return "net.recv.discovery";
    case SpanKind::kRecvMember: return "net.recv.member";
    case SpanKind::kSend: return "net.send";
    case SpanKind::kPublish: return "bus.client_publish";
    case SpanKind::kDeliver: return "bus.deliver_handler";
    case SpanKind::kOverhead: return "harness.trace";
    case SpanKind::kCount: break;
  }
  return "?";
}

// ---- Tracer

Tracer::Tracer(std::uint32_t frame_sample)
    : frame_sample_(frame_sample == 0 ? 1 : frame_sample),
      generation_(++g_generation) {}

Tracer::~Tracer() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

ThreadTrace& Tracer::local() {
  if (tls_slot.generation == generation_) return *tls_slot.trace;
  std::lock_guard<std::mutex> lock(mu_);
  auto tt = std::make_unique<ThreadTrace>();
  tt->index = static_cast<std::uint8_t>(threads_.size());
  tt->spans.reserve(4096);
  tls_slot = TlsSlot{generation_, tt.get()};
  threads_.push_back(std::move(tt));
  return *tls_slot.trace;
}

void Tracer::set_member_index(std::uint64_t service_raw, int index) {
  members_[service_raw] = index;
}

int Tracer::member_index(std::uint64_t service_raw) const {
  auto it = members_.find(service_raw);
  return it == members_.end() ? -1 : it->second;
}

void Tracer::on_send(ThreadTrace& tt, amuse::ServiceId dst, BytesView data,
                     bool from_core, std::int64_t t) {
  FrameStats& fs = tt.frames;
  ++fs.datagrams;
  fs.bytes += data.size();
  if (tt.frames_captured.size() < kMaxFrames) {
    tt.frames_captured.emplace_back(data.begin(), data.end());
  }
  std::optional<FrameHeader> h = frame_header(data);
  if (!h) return;
  if (h->type == PacketType::kAck) {
    ++fs.ack_frames;
    return;
  }
  if (h->type != PacketType::kData) {
    ++fs.other_frames;
    return;
  }
  ++fs.data_frames;
  std::uint32_t n = 1;
  if ((h->flags & amuse::kFlagBatched) != 0) {
    if (auto parts = Packet::split_batch(h->payload)) {
      n = static_cast<std::uint32_t>(parts->size());
    }
  }
  fs.data_msgs += n;
  auto [it, fresh] = tt.seq_end.try_emplace(h->channel, 0);
  if (!fresh && h->seq < it->second) {
    ++fs.retransmits;
    return;  // hop stages keep the first transmission
  }
  it->second = h->seq + n;
  int member = from_core ? member_index(dst.raw()) : 0;
  if (member < 0 || !decode_.load(std::memory_order_relaxed) ||
      !sample_frame(h->channel, h->seq)) {
    return;
  }
  // Sampled frames take the full public decode, CRC check included.
  std::optional<Packet> p = Packet::decode(data);
  if (!p) return;
  for (BytesView m : messages_of(*p)) {
    BusMessage bm;
    try {
      bm = BusMessage::decode(m);
    } catch (const amuse::DecodeError&) {
      continue;
    }
    if (!bm.event) continue;
    bool want = from_core ? bm.type == BusMsgType::kEvent
                          : bm.type == BusMsgType::kPublish;
    std::uint64_t key = key_of(*bm.event);
    if (!want || key == 0 || tt.hops.size() >= kMaxHops) continue;
    tt.hops.push_back(HopRecord{
        key, t, 0,
        static_cast<std::uint8_t>(from_core ? HopStage::kCoreWire
                                            : HopStage::kPubWire),
        static_cast<std::uint8_t>(member)});
  }
}

void Tracer::on_recv(ThreadTrace& tt, BytesView data, bool at_core,
                     int member, std::int64_t t) {
  if (!decode_.load(std::memory_order_relaxed)) return;
  std::optional<FrameHeader> h = frame_header(data);
  if (!h || h->type != PacketType::kData || !sample_frame(h->channel, h->seq)) {
    return;
  }
  std::optional<Packet> p = Packet::decode(data);
  if (!p) return;
  std::int64_t qwait = tt.cur_post_ns != 0 ? t - tt.cur_post_ns : 0;
  for (BytesView m : messages_of(*p)) {
    BusMessage bm;
    try {
      bm = BusMessage::decode(m);
    } catch (const amuse::DecodeError&) {
      continue;
    }
    if (!bm.event) continue;
    bool want = at_core ? bm.type == BusMsgType::kPublish
                        : bm.type == BusMsgType::kEvent;
    std::uint64_t key = key_of(*bm.event);
    if (!want || key == 0 || tt.hops.size() >= kMaxHops) continue;
    tt.hops.push_back(HopRecord{
        key, t, qwait,
        static_cast<std::uint8_t>(at_core ? HopStage::kCoreRecv
                                          : HopStage::kMemberRecv),
        static_cast<std::uint8_t>(at_core ? 0 : member)});
  }
}

void Tracer::capture_auth(const std::string& role, bool publish,
                          std::string_view topic) {
  ThreadTrace& tt = local();
  if (tt.auth_captured.size() < kMaxAuth) {
    tt.auth_captured.push_back({role, publish, std::string(topic)});
  }
}

std::vector<const ThreadTrace*> Tracer::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : threads_) out.push_back(t.get());
  return out;
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# thread kind start_ns end_ns parent event\n");
  for (const ThreadTrace* tt : threads()) {
    for (const Span& s : tt->spans) {
      if (s.end == 0) continue;  // still open when the run stopped
      std::fprintf(f, "%u %s %lld %lld %d %llx\n", s.thread,
                   to_string(static_cast<SpanKind>(s.kind)),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.event));
    }
  }
  return std::fclose(f) == 0;
}

// ---- ScopedSpan

void ScopedSpan::open(ThreadTrace& tt, SpanKind kind) {
  tt_ = &tt;
  start_ = now_ns();
  std::int32_t stored = -1;
  if (tt.spans.size() < Tracer::kMaxStoredSpans) {
    stored = static_cast<std::int32_t>(tt.spans.size());
    std::int32_t parent = tt.stack.empty() ? -1 : tt.stack.back().stored;
    tt.spans.push_back(Span{start_, 0, parent, static_cast<std::uint8_t>(kind),
                            tt.index, 0});
  }
  tt.stack.push_back(ThreadTrace::Open{start_, 0, 0, stored, kind});
}

void ScopedSpan::set_event(std::uint64_t key) {
  if (tt_ == nullptr) return;
  std::int32_t stored = tt_->stack.back().stored;
  if (stored >= 0) tt_->spans[static_cast<std::size_t>(stored)].event = key;
}

std::int64_t ScopedSpan::close() {
  if (tt_ == nullptr) return 0;
  std::int64_t end = now_ns();
  ThreadTrace::Open o = tt_->stack.back();
  tt_->stack.pop_back();
  std::int64_t dur = end - o.start;
  std::int64_t overhead = o.kind == SpanKind::kOverhead ? dur : o.overhead_ns;
  KindAgg& a = tt_->agg[static_cast<std::size_t>(o.kind)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  a.clean_ns += dur - overhead;
  if (!tt_->stack.empty()) {
    tt_->stack.back().child_ns += dur;
    tt_->stack.back().overhead_ns += overhead;
  } else {
    tt_->toplevel_ns += dur;
  }
  if (o.stored >= 0) tt_->spans[static_cast<std::size_t>(o.stored)].end = end;
  tt_ = nullptr;
  return dur;
}

// ---- Decorators

void TracingExecutor::post(amuse::Task fn) {
  Tracer* tr = Tracer::active();
  if (tr == nullptr) {
    inner_.post(std::move(fn));
    return;
  }
  ThreadTrace& tt = tr->local();
  amuse::Task wrapped;
  {
    ScopedSpan overhead(tt, SpanKind::kOverhead);
    wrapped = [fn = std::move(fn), t = now_ns(), d = domain_]() mutable {
      run_traced(fn, t, d);
    };
  }
  inner_.post(std::move(wrapped));
}

amuse::TimerId TracingExecutor::schedule_at(amuse::TimePoint t,
                                            amuse::Task fn) {
  Tracer* tr = Tracer::active();
  if (tr == nullptr) return inner_.schedule_at(t, std::move(fn));
  ThreadTrace& tt = tr->local();
  amuse::Task wrapped;
  std::shared_ptr<amuse::TimerId> slot;
  {
    ScopedSpan overhead(tt, SpanKind::kOverhead);
    // The open span below the overhead one tells a hand-over from a timer.
    SpanKind caller = tt.stack.size() >= 2 ? tt.stack[tt.stack.size() - 2].kind
                                           : SpanKind::kCount;
    std::int64_t handover = 0;
    if (caller == SpanKind::kSend) {
      handover = now_ns();  // the simulated network scheduling an arrival
    } else if (caller == SpanKind::kTask && tt.cur_post_ns != 0) {
      handover = tt.cur_post_ns;  // a later stage of the same arrival
    }
    if (handover != 0) {
      wrapped = [fn = std::move(fn), handover, d = domain_]() mutable {
        run_traced(fn, handover, d);
      };
    } else {
      ++tt.timers_armed;
      slot = std::make_shared<amuse::TimerId>(amuse::kNoTimer);
      wrapped = [this, slot, fn = std::move(fn), d = domain_]() mutable {
        {
          std::lock_guard<std::mutex> lock(mu_);
          live_.erase(*slot);
        }
        run_traced(fn, 0, d);
      };
    }
  }
  amuse::TimerId id = inner_.schedule_at(t, std::move(wrapped));
  if (slot) {
    ScopedSpan overhead(tt, SpanKind::kOverhead);
    *slot = id;
    std::lock_guard<std::mutex> lock(mu_);
    live_.insert(id);
  }
  return id;
}

void TracingExecutor::cancel(amuse::TimerId id) {
  if (Tracer* tr = Tracer::active(); tr != nullptr && id != amuse::kNoTimer) {
    ThreadTrace& tt = tr->local();
    ScopedSpan overhead(tt, SpanKind::kOverhead);
    std::lock_guard<std::mutex> lock(mu_);
    if (live_.erase(id) > 0) ++tt.timers_cancelled;
  }
  inner_.cancel(id);
}

void TracingTransport::send(amuse::ServiceId dst, BytesView data) {
  Tracer* tr = Tracer::active();
  if (tr == nullptr) {
    inner_->send(dst, data);
    return;
  }
  ThreadTrace& tt = tr->local();
  std::int64_t t = 0;
  {
    ScopedSpan span(tt, SpanKind::kSend);
    t = span.start();
    inner_->send(dst, data);
    tt.frames.send_ns += span.close();
  }
  ++tt.frames.send_calls;
  ScopedSpan overhead(tt, SpanKind::kOverhead);
  tr->on_send(tt, dst, data, role_ != EndpointRole::kMember, t);
}

void TracingTransport::send_batch(std::span<const Datagram> batch) {
  Tracer* tr = Tracer::active();
  if (tr == nullptr) {
    inner_->send_batch(batch);
    return;
  }
  ThreadTrace& tt = tr->local();
  std::int64_t t = 0;
  {
    ScopedSpan span(tt, SpanKind::kSend);
    t = span.start();
    inner_->send_batch(batch);
    tt.frames.send_ns += span.close();
  }
  ++tt.frames.send_calls;
  ScopedSpan overhead(tt, SpanKind::kOverhead);
  for (const Datagram& d : batch) {
    tr->on_send(tt, d.dst, d.data, role_ != EndpointRole::kMember, t);
  }
}

void TracingTransport::broadcast(BytesView data) {
  Tracer* tr = Tracer::active();
  if (tr == nullptr) {
    inner_->broadcast(data);
    return;
  }
  ThreadTrace& tt = tr->local();
  {
    ScopedSpan span(tt, SpanKind::kSend);
    inner_->broadcast(data);
    tt.frames.send_ns += span.close();
  }
  ++tt.frames.send_calls;
  ++tt.frames.datagrams;
  ++tt.frames.other_frames;
  tt.frames.bytes += data.size();
}

void TracingTransport::set_receive_handler(ReceiveHandler handler) {
  if (!handler) {
    inner_->set_receive_handler(nullptr);
    return;
  }
  SpanKind kind = role_ == EndpointRole::kCoreBus     ? SpanKind::kRecvCore
                  : role_ == EndpointRole::kCoreDisco ? SpanKind::kRecvDisco
                                                      : SpanKind::kRecvMember;
  inner_->set_receive_handler(
      [kind, role = role_, member = member_, h = std::move(handler)](
          amuse::ServiceId src, BytesView data) {
        Tracer* tr = Tracer::active();
        if (tr == nullptr) {
          h(src, data);
          return;
        }
        ThreadTrace& tt = tr->local();
        ScopedSpan span(tt, kind);
        if (role != EndpointRole::kCoreDisco) {
          ScopedSpan overhead(tt, SpanKind::kOverhead);
          tr->on_recv(tt, data, role == EndpointRole::kCoreBus, member,
                      span.start());
        }
        h(src, data);
      });
}

std::shared_ptr<amuse::Transport> traced(bool on,
                                         std::shared_ptr<amuse::Transport> t,
                                         EndpointRole role, int member) {
  if (!on) return t;
  return std::make_shared<TracingTransport>(std::move(t), role, member);
}

double span_cost_ns() {
  ThreadTrace tt;
  tt.spans.resize(Tracer::kMaxStoredSpans);  // measure the past-the-cap path
  constexpr int kIters = 200'000;
  std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    ScopedSpan s(tt, SpanKind::kTask);
  }
  return static_cast<double>(now_ns() - t0) / kIters;
}

}  // namespace perfbench
