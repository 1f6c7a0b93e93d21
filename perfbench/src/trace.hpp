// Span recorder for the traced run, and the two decorators that feed it.
//
// The benchmark never instruments the library: it wraps the stack's two
// public seams. TracingExecutor decorates an Executor (tasks, timers, queue
// wait); TracingTransport decorates a Transport endpoint (datagrams sent
// and received). The benchmark's own calls into BusClient::publish and its
// subscriber handlers open spans too. Every span is closed on the thread
// that opened it, so each thread keeps its own buffer and the hot path
// takes no lock. Self time (duration minus the time covered by child spans)
// is aggregated online for every span; the first kMaxStoredSpans spans are
// also kept verbatim and written out once, after the run.
//
// Work the recorder itself does (decoding frames to attribute them to
// events) runs inside kOverhead spans, so it is excluded from the self time
// of the span it happens under and reported as tracing overhead.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/transport.hpp"
#include "sim/executor.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  kStep,        // the benchmark's call into SimExecutor::step / run_until
  kTask,        // one executor task or timer callback (sim layer)
  kRecvCore,    // datagram handled by the bus core's endpoint
  kRecvDisco,   // datagram handled by the discovery service's endpoint
  kRecvMember,  // datagram handled by a member endpoint
  kSend,        // Transport::send / send_batch / broadcast
  kPublish,     // the benchmark's call into BusClient::publish
  kDeliver,     // the benchmark's subscriber handler
  kOverhead,    // the recorder's own work (frame decoding)
  kCount
};
inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);
[[nodiscard]] const char* to_string(SpanKind k);

/// Which executor a task ran on: the bus core's or the members' (edge).
enum class Domain : std::uint8_t { kCore = 0, kEdge = 1 };

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into the same thread's stored spans
  std::uint8_t kind = 0;
  std::uint8_t thread = 0;
  std::uint64_t event = 0;  // event_key() of the event it concerns, or 0
};

struct KindAgg {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;   // total minus direct children
  std::int64_t clean_ns = 0;  // total minus nested kOverhead spans
};

/// Where along the publish->deliver path an event was seen.
enum class HopStage : std::uint8_t {
  kPublishCall,  // benchmark entered BusClient::publish
  kPubWire,      // publisher endpoint sent the DATA frame carrying it
  kCoreRecv,     // bus core endpoint began handling that frame
  kCoreWire,     // bus core sent the kEvent frame towards one member
  kMemberRecv,   // member endpoint began handling that frame
  kHandler,      // subscriber handler ran
};

struct HopRecord {
  std::uint64_t key = 0;  // event_key()
  std::int64_t t = 0;
  std::int64_t qwait = 0;  // queue wait of the task the stage ran in
  std::uint8_t stage = 0;
  std::uint8_t member = 0;  // subscriber index (kCoreWire..kHandler)
};

/// Per-frame wire accounting. Every frame's fixed header is read in place
/// (split_batch counts a batch's sub-messages); the sampled frames that
/// feed the hop stages also go through the public Packet::decode.
struct FrameStats {
  std::uint64_t send_calls = 0;  // send + send_batch + broadcast calls
  std::uint64_t datagrams = 0;
  std::uint64_t bytes = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t data_msgs = 0;  // sub-messages inside DATA frames
  std::uint64_t ack_frames = 0;
  std::uint64_t retransmits = 0;  // DATA frames whose seq was already sent
  std::uint64_t other_frames = 0;  // discovery traffic
  std::int64_t send_ns = 0;
};

struct ThreadTrace {
  struct Open {
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t overhead_ns;  // nested kOverhead time, at any depth
    std::int32_t stored;
    SpanKind kind;
  };
  std::uint8_t index = 0;
  std::vector<Open> stack;
  std::array<KindAgg, kSpanKinds> agg{};
  std::int64_t toplevel_ns = 0;  // time covered by spans with no parent
  std::vector<Span> spans;
  // Executor decorator counters. A schedule_at() made inside a send span
  // is the simulated network scheduling a datagram's arrival: a hand-over
  // to the receiver, like a post, not a timer.
  std::uint64_t timers_armed = 0;
  std::uint64_t timers_cancelled = 0;
  std::array<std::int64_t, 2> busy_ns{};  // task time per Domain
  std::vector<float> qwait_us;  // hand-over -> task start (not timers)
  std::int64_t cur_post_ns = 0;  // post time of the running task (0: timer)
  FrameStats frames;
  // Highest DATA seq end sent per channel (src, dst, session). A channel
  // always sends from one executor, so the map is per thread.
  std::unordered_map<std::uint64_t, std::uint32_t> seq_end;
  std::vector<HopRecord> hops;
  // Capped captures of the run's real inputs, for the layer replays.
  std::vector<amuse::Bytes> frames_captured;  // datagrams as sent
  struct Auth {
    std::string role;
    bool publish;
    std::string topic;
  };
  std::vector<Auth> auth_captured;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxStoredSpans = 200'000;  // per thread
  static constexpr std::size_t kMaxHops = 1'000'000;       // per thread
  static constexpr std::size_t kMaxQwait = 1'000'000;      // per thread
  static constexpr std::size_t kMaxFrames = 10'000;        // per thread
  static constexpr std::size_t kMaxAuth = 10'000;          // per thread

  /// `frame_sample`: decode the bus messages of one DATA frame in this many
  /// for hop stages (1 = every frame). The choice hashes the frame's
  /// (channel, seq), so sender and receiver sample the same frames.
  explicit Tracer(std::uint32_t frame_sample);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer of the running traced run; null when tracing is off.
  [[nodiscard]] static Tracer* active() {
    return active_.load(std::memory_order_acquire);
  }
  /// Starts / stops recording. The decorators pass straight through while
  /// no tracer is active, so set-up traffic is not recorded. Keep the
  /// tracer alive until every thread that recorded has stopped.
  void activate() { active_.store(this, std::memory_order_release); }
  void deactivate() { active_.store(nullptr, std::memory_order_release); }
  /// The calling thread's buffer (registered on first use).
  [[nodiscard]] ThreadTrace& local();

  [[nodiscard]] bool sample_frame(std::uint64_t channel,
                                  std::uint32_t seq) const {
    std::uint64_t h = (channel ^ seq) * 0x9e3779b97f4a7c15ULL;
    return (h >> 40) % frame_sample_ == 0;
  }
  /// Turns the per-frame message decoding for hop stages on or off (frame
  /// counts are always kept). A workload turns it off for phases whose
  /// latency it does not report.
  void set_decode(bool on) { decode_.store(on, std::memory_order_relaxed); }
  void set_member_index(std::uint64_t service_raw, int index);
  [[nodiscard]] int member_index(std::uint64_t service_raw) const;

  /// Accounts one sent datagram: frame counts, retransmits, (capped)
  /// captures, and for sampled DATA frames the hop stages of the events
  /// inside. `from_core` tells which side of the bus sent it.
  void on_send(ThreadTrace& tt, amuse::ServiceId dst, amuse::BytesView data,
               bool from_core, std::int64_t t);
  /// Decodes one received datagram at the core or a member for hop stages.
  void on_recv(ThreadTrace& tt, amuse::BytesView data, bool at_core,
               int member, std::int64_t t);
  void capture_auth(const std::string& role, bool publish,
                    std::string_view topic);

  /// Everything the threads recorded; call after every thread has stopped.
  [[nodiscard]] std::vector<const ThreadTrace*> threads() const;
  /// Writes every stored span as text lines: thread kind start end parent
  /// event. Returns false when the file cannot be written.
  bool write_spans(const std::string& path) const;

 private:
  static inline std::atomic<Tracer*> active_{nullptr};
  std::uint32_t frame_sample_;
  std::atomic<bool> decode_{true};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
  // Written during set-up only, before any traced thread runs.
  std::unordered_map<std::uint64_t, int> members_;
  std::uint64_t generation_;
};

/// Opens a span on the calling thread when a traced run is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) {
    if (Tracer* t = Tracer::active()) open(t->local(), kind);
  }
  ScopedSpan(ThreadTrace& tt, SpanKind kind) { open(tt, kind); }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Start time of the span (0 when tracing is off).
  [[nodiscard]] std::int64_t start() const { return start_; }
  void set_event(std::uint64_t key);
  /// Closes early; returns the duration.
  std::int64_t close();

 private:
  void open(ThreadTrace& tt, SpanKind kind);
  ThreadTrace* tt_ = nullptr;
  std::int64_t start_ = 0;
};

/// 64-bit identity of a benchmark event: publisher index, per-publisher
/// sequence number, and whether it is an obligation-derived alarm.
[[nodiscard]] inline std::uint64_t event_key(std::uint32_t pub,
                                             std::uint32_t pseq,
                                             bool derived) {
  return (static_cast<std::uint64_t>(derived) << 63) |
         (static_cast<std::uint64_t>(pub) << 32) | pseq;
}

class TracingExecutor final : public amuse::Executor {
 public:
  TracingExecutor(amuse::Executor& inner, Domain domain)
      : inner_(inner), domain_(domain) {}

  [[nodiscard]] amuse::TimePoint now() const override { return inner_.now(); }
  void post(amuse::Task fn) override;
  amuse::TimerId schedule_at(amuse::TimePoint t, amuse::Task fn) override;
  void cancel(amuse::TimerId id) override;

 private:
  amuse::Executor& inner_;
  Domain domain_;
  // Timers armed and not yet fired: a cancel() only counts as a wasted
  // timer when it finds its id here.
  std::mutex mu_;
  std::unordered_set<amuse::TimerId> live_;
};

enum class EndpointRole : std::uint8_t { kCoreBus, kCoreDisco, kMember };

class TracingTransport final : public amuse::Transport {
 public:
  TracingTransport(std::shared_ptr<amuse::Transport> inner, EndpointRole role,
                   int member)
      : inner_(std::move(inner)), role_(role), member_(member) {}

  [[nodiscard]] amuse::ServiceId local_id() const override {
    return inner_->local_id();
  }
  void send(amuse::ServiceId dst, amuse::BytesView data) override;
  void send_batch(std::span<const Datagram> batch) override;
  void broadcast(amuse::BytesView data) override;
  void set_receive_handler(ReceiveHandler handler) override;
  [[nodiscard]] std::size_t max_datagram() const override {
    return inner_->max_datagram();
  }

 private:
  std::shared_ptr<amuse::Transport> inner_;
  EndpointRole role_;
  int member_;
};

/// Wraps `t` in a TracingTransport when `on` (the run is traced).
[[nodiscard]] std::shared_ptr<amuse::Transport> traced(
    bool on, std::shared_ptr<amuse::Transport> t, EndpointRole role,
    int member = -1);

/// Cost of opening and closing one span, measured on this machine; the
/// reconciliation subtracts it per recorded span.
[[nodiscard]] double span_cost_ns();

}  // namespace perfbench
