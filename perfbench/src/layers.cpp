#include "layers.hpp"

#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "bus/messages.hpp"
#include "bus/subscription_registry.hpp"
#include "common/crc32.hpp"
#include "policy/authorisation.hpp"
#include "policy/policy_store.hpp"
#include "pubsub/codec.hpp"
#include "pubsub/fastforward_matcher.hpp"
#include "wire/packet.hpp"

namespace perfbench {
namespace {

using amuse::Bytes;
using amuse::BytesView;
using amuse::Event;
using amuse::Packet;

constexpr int kReplayReps = 5;
constexpr std::int64_t kReplayMinNs = 20'000'000;

/// Median over kReplayReps of the ns per operation of `pass`, which
/// performs `ops` operations; each repetition loops for >= kReplayMinNs.
template <typename Pass>
double ns_per_op(std::size_t ops, Pass pass) {
  if (ops == 0) return 0;
  std::vector<double> reps;
  for (int r = 0; r < kReplayReps; ++r) {
    std::int64_t t0 = now_ns();
    std::int64_t t = t0;
    std::size_t done = 0;
    do {
      pass();
      done += ops;
      t = now_ns();
    } while (t - t0 < kReplayMinNs);
    reps.push_back(static_cast<double>(t - t0) / static_cast<double>(done));
  }
  return quantile(std::move(reps), 0.5);
}

volatile std::uint64_t g_sink = 0;  // keeps replayed results observable

struct Inputs {
  std::vector<Bytes> frames;
  std::vector<Packet> packets;
  std::vector<Event> events;           // every event the frames carried
  std::vector<Event> routed;           // events the core routed (kPublish)
  std::vector<ThreadTrace::Auth> auth;
};

Inputs collect(const Tracer& tracer) {
  Inputs in;
  for (const ThreadTrace* tt : tracer.threads()) {
    for (const Bytes& f : tt->frames_captured) in.frames.push_back(f);
    for (const auto& a : tt->auth_captured) in.auth.push_back(a);
  }
  for (const Bytes& f : in.frames) {
    std::optional<Packet> p = Packet::decode(f);
    if (!p) continue;
    in.packets.push_back(*p);
    if (p->type != amuse::PacketType::kData ||
        (p->flags & amuse::kFlagMoreFragments)) {
      continue;
    }
    std::vector<BytesView> msgs;
    if (p->flags & amuse::kFlagBatched) {
      if (auto parts = Packet::split_batch(p->payload)) msgs = *parts;
    } else {
      msgs.emplace_back(p->payload);
    }
    for (BytesView m : msgs) {
      try {
        amuse::BusMessage bm = amuse::BusMessage::decode(m);
        if (!bm.event) continue;
        if (bm.type == amuse::BusMsgType::kPublish) in.routed.push_back(*bm.event);
        in.events.push_back(std::move(*bm.event));
      } catch (const amuse::DecodeError&) {
      }
    }
  }
  return in;
}

amuse::ServiceId member_id(int member) {
  return amuse::ServiceId(0x0a0000020000ULL + static_cast<std::uint64_t>(member));
}

struct Replay {
  double crc_ns_per_byte = 0;
  double packet_encode_ns = 0;
  double packet_decode_ns = 0;
  double encode_event_ns = 0;
  double decode_event_ns = 0;
  double event_bytes = 0;
  double match_ns = 0;
  double matched_per_publish = 0;
  double subscribe_us = 0;
  double unsubscribe_us = 0;
  double auth_ns = 0;
};

Replay replay(const Inputs& in, const Measurement& traced) {
  Replay r;
  std::size_t crc_bytes = 0;
  for (const Bytes& f : in.frames) crc_bytes += f.size() >= 4 ? f.size() - 4 : 0;
  r.crc_ns_per_byte = ns_per_op(crc_bytes, [&] {
    std::uint32_t acc = 0;
    for (const Bytes& f : in.frames) {
      if (f.size() >= 4) acc ^= amuse::crc32(BytesView(f).first(f.size() - 4));
    }
    g_sink = g_sink + acc;
  });
  r.packet_decode_ns = ns_per_op(in.frames.size(), [&] {
    std::size_t n = 0;
    for (const Bytes& f : in.frames) n += Packet::decode(f) ? 1 : 0;
    g_sink = g_sink + n;
  });
  r.packet_encode_ns = ns_per_op(in.packets.size(), [&] {
    std::size_t n = 0;
    for (const Packet& p : in.packets) n += p.encode().size();
    g_sink = g_sink + n;
  });

  std::vector<Bytes> encoded;
  double bytes = 0;
  for (const Event& e : in.events) {
    encoded.push_back(amuse::encode_event(e));
    bytes += static_cast<double>(encoded.back().size());
  }
  r.event_bytes = encoded.empty() ? 0 : bytes / static_cast<double>(encoded.size());
  r.encode_event_ns = ns_per_op(in.events.size(), [&] {
    std::size_t n = 0;
    for (const Event& e : in.events) n += amuse::encode_event(e).size();
    g_sink = g_sink + n;
  });
  r.decode_event_ns = ns_per_op(encoded.size(), [&] {
    std::size_t n = 0;
    for (const Bytes& b : encoded) n += amuse::decode_event(b).size();
    g_sink = g_sink + n;
  });

  amuse::SubscriptionRegistry reg(std::make_unique<amuse::FastForwardMatcher>());
  for (const SubscriptionInput& s : traced.subscriptions) {
    reg.subscribe(member_id(s.member), s.local_id, s.filter);
  }
  amuse::SubscriptionRegistry::MatchResult hit;
  double matched = 0;
  for (const Event& e : in.routed) {
    hit.clear();
    reg.match(e, hit);
    for (const auto& [member, locals] : hit) {
      matched += static_cast<double>(locals.size());
    }
  }
  r.matched_per_publish =
      in.routed.empty() ? 0 : matched / static_cast<double>(in.routed.size());
  r.match_ns = ns_per_op(in.routed.size(), [&] {
    std::size_t n = 0;
    for (const Event& e : in.routed) {
      hit.clear();
      reg.match(e, hit);
      n += hit.size();
    }
    g_sink = g_sink + n;
  });

  // Registry writes: the whole subscription set into a fresh registry, then
  // out again; median of the repetitions.
  std::vector<double> sub_us;
  std::vector<double> unsub_us;
  auto n = static_cast<double>(traced.subscriptions.size());
  for (int rep = 0; rep < 3 && n > 0; ++rep) {
    amuse::SubscriptionRegistry fresh(
        std::make_unique<amuse::FastForwardMatcher>());
    std::int64_t t0 = now_ns();
    for (const SubscriptionInput& s : traced.subscriptions) {
      fresh.subscribe(member_id(s.member), s.local_id, s.filter);
    }
    std::int64_t t1 = now_ns();
    for (const SubscriptionInput& s : traced.subscriptions) {
      fresh.unsubscribe(member_id(s.member), s.local_id);
    }
    std::int64_t t2 = now_ns();
    sub_us.push_back(static_cast<double>(t1 - t0) / 1e3 / n);
    unsub_us.push_back(static_cast<double>(t2 - t1) / 1e3 / n);
  }
  r.subscribe_us = quantile(sub_us, 0.5);
  r.unsubscribe_us = quantile(unsub_us, 0.5);

  if (!traced.policy_text.empty() && !in.auth.empty()) {
    amuse::PolicyStore store;
    store.load_text(traced.policy_text);
    amuse::AuthorisationService auth(store);
    r.auth_ns = ns_per_op(in.auth.size(), [&] {
      std::size_t permitted = 0;
      for (const auto& a : in.auth) {
        permitted += auth.check(a.role,
                                a.publish ? amuse::AuthOp::kPublish
                                          : amuse::AuthOp::kSubscribe,
                                a.topic)
                         ? 1
                         : 0;
      }
      g_sink = g_sink + permitted;
    });
  }
  return r;
}

/// Everything the traced run's threads recorded, summed.
struct Totals {
  std::array<KindAgg, kSpanKinds> agg{};
  std::int64_t toplevel_ns = 0;
  std::uint64_t timers_armed = 0;
  std::uint64_t timers_cancelled = 0;
  std::array<std::int64_t, 2> busy_ns{};
  std::vector<float> qwait_us;
  FrameStats frames;
  std::uint64_t spans = 0;

  const KindAgg& operator[](SpanKind k) const {
    return agg[static_cast<std::size_t>(k)];
  }
};

Totals totals(const Tracer& tracer) {
  Totals t;
  for (const ThreadTrace* tt : tracer.threads()) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      t.agg[k].count += tt->agg[k].count;
      t.agg[k].total_ns += tt->agg[k].total_ns;
      t.agg[k].self_ns += tt->agg[k].self_ns;
      t.agg[k].clean_ns += tt->agg[k].clean_ns;
      t.spans += tt->agg[k].count;
    }
    t.toplevel_ns += tt->toplevel_ns;
    t.timers_armed += tt->timers_armed;
    t.timers_cancelled += tt->timers_cancelled;
    for (int d = 0; d < 2; ++d) t.busy_ns[static_cast<std::size_t>(d)] += tt->busy_ns[static_cast<std::size_t>(d)];
    t.qwait_us.insert(t.qwait_us.end(), tt->qwait_us.begin(), tt->qwait_us.end());
    const FrameStats& f = tt->frames;
    t.frames.send_calls += f.send_calls;
    t.frames.datagrams += f.datagrams;
    t.frames.bytes += f.bytes;
    t.frames.data_frames += f.data_frames;
    t.frames.data_msgs += f.data_msgs;
    t.frames.ack_frames += f.ack_frames;
    t.frames.retransmits += f.retransmits;
    t.frames.other_frames += f.other_frames;
    t.frames.send_ns += f.send_ns;
  }
  return t;
}

/// Per-hop latency means over every (event, subscriber) delivery whose
/// stages were all seen: the intervals tile due -> handler exactly.
struct Hops {
  std::size_t deliveries = 0;
  double lag_us = 0;
  double publish_to_wire_us = 0;
  double core_to_wire_us = 0;
  double wire_to_handler_us = 0;
  double queue_wait_us = 0;
  [[nodiscard]] double sum() const {
    return lag_us + publish_to_wire_us + core_to_wire_us + wire_to_handler_us +
           queue_wait_us;
  }
};

Hops hops(const Tracer& tracer) {
  struct PubStages {
    std::int64_t call = 0, lag = 0, wire = 0, core = 0, core_q = 0;
  };
  struct SubStages {
    std::int64_t wire = 0, recv = 0, recv_q = 0, handler = 0;
  };
  auto first = [](std::int64_t& slot, std::int64_t t) {
    if (slot == 0 || t < slot) slot = t;
  };
  std::unordered_map<std::uint64_t, PubStages> pubs;
  std::unordered_map<std::uint64_t, SubStages> subs;  // key << 6 | member
  for (const ThreadTrace* tt : tracer.threads()) {
    for (const HopRecord& h : tt->hops) {
      if (h.key >> 63) continue;  // obligation-derived: no publisher hop
      switch (static_cast<HopStage>(h.stage)) {
        case HopStage::kPublishCall: {
          PubStages& p = pubs[h.key];
          p.call = h.t;
          p.lag = h.qwait;
          break;
        }
        case HopStage::kPubWire: first(pubs[h.key].wire, h.t); break;
        case HopStage::kCoreRecv: {
          PubStages& p = pubs[h.key];
          if (p.core == 0 || h.t < p.core) {
            p.core = h.t;
            p.core_q = h.qwait;
          }
          break;
        }
        case HopStage::kCoreWire: first(subs[h.key << 6 | h.member].wire, h.t); break;
        case HopStage::kMemberRecv: {
          SubStages& s = subs[h.key << 6 | h.member];
          if (s.recv == 0 || h.t < s.recv) {
            s.recv = h.t;
            s.recv_q = h.qwait;
          }
          break;
        }
        case HopStage::kHandler: first(subs[h.key << 6 | h.member].handler, h.t); break;
      }
    }
  }
  Hops out;
  for (const auto& [composite, s] : subs) {
    auto pit = pubs.find(composite >> 6);
    if (pit == pubs.end()) continue;
    const PubStages& p = pit->second;
    if (p.call == 0 || p.wire == 0 || p.core == 0) continue;
    {
      if (s.wire == 0 || s.recv == 0 || s.handler == 0) continue;
      ++out.deliveries;
      out.lag_us += static_cast<double>(p.lag);
      out.publish_to_wire_us += static_cast<double>(p.wire - p.call);
      out.core_to_wire_us += static_cast<double>(s.wire - p.core);
      out.queue_wait_us += static_cast<double>(p.core_q + s.recv_q);
      out.wire_to_handler_us +=
          static_cast<double>((p.core - p.wire - p.core_q) +
                              (s.handler - s.wire - s.recv_q));
    }
  }
  if (out.deliveries > 0) {
    double n = static_cast<double>(out.deliveries) * 1000.0;  // ns -> µs
    out.lag_us /= n;
    out.publish_to_wire_us /= n;
    out.core_to_wire_us /= n;
    out.wire_to_handler_us /= n;
    out.queue_wait_us /= n;
  }
  return out;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace

LayerReport analyse(const RunOptions& opt, const Measurement& untraced,
                    const Measurement& traced, const Tracer& tracer) {
  LayerReport rep;
  Inputs in = collect(tracer);
  Replay r = replay(in, traced);
  Totals t = totals(tracer);
  Hops h = hops(tracer);
  bool udp = opt.workload == "bedside_udp";

  const double D = static_cast<double>(std::max<std::uint64_t>(1, traced.traced_deliveries));
  const double P = static_cast<double>(traced.bus_delta.published);
  const double derived = static_cast<double>(traced.obligations_fired);
  const double member_publishes = P - derived;
  const double wall_ns = traced.traced_wall_s * 1e9;
  // Untraced reference per delivery: on the single-threaded simulation,
  // the wall time of the untraced slices interleaved with the traced ones;
  // on the multi-threaded UDP run, the untraced run's process CPU.
  double untraced_ns =
      udp ? untraced.cpu_us_per_delivery * 1e3
          : ratio(traced.reference_wall_s * 1e9,
                  static_cast<double>(traced.reference_deliveries));
  double crc_bytes = 2.0 * static_cast<double>(t.frames.bytes);  // encode + decode
  const double span_cost = span_cost_ns();

  auto add = [&](const char* name, double value, const char* unit) {
    rep.metrics.push_back({name, value, unit});
  };
  add("common.crc32_ns_per_kb", r.crc_ns_per_byte * 1024, "ns/KB");
  add("common.crc32_share",
      ratio(r.crc_ns_per_byte * crc_bytes / D, untraced_ns), "share");
  add("pubsub.match_us_per_publish", r.match_ns / 1e3, "us");
  add("pubsub.matched_per_publish", r.matched_per_publish, "count");
  add("pubsub.subscribe_us", r.subscribe_us, "us");
  add("pubsub.unsubscribe_us", r.unsubscribe_us, "us");
  add("pubsub.encode_event_ns", r.encode_event_ns, "ns");
  add("pubsub.decode_event_ns", r.decode_event_ns, "ns");
  add("pubsub.event_bytes", r.event_bytes, "B");
  add("wire.packet_encode_ns", r.packet_encode_ns, "ns");
  add("wire.packet_decode_ns", r.packet_decode_ns, "ns");
  add("wire.datagrams_per_delivery", static_cast<double>(t.frames.datagrams) / D, "count");
  add("wire.msgs_per_data_frame",
      ratio(static_cast<double>(t.frames.data_msgs), static_cast<double>(t.frames.data_frames)),
      "count");
  add("wire.acks_per_data_frame",
      ratio(static_cast<double>(t.frames.ack_frames), static_cast<double>(t.frames.data_frames)),
      "count");
  add("wire.retransmit_share",
      ratio(static_cast<double>(t.frames.retransmits), static_cast<double>(t.frames.data_frames)),
      "share");
  add("wire.publish_to_wire_us", h.publish_to_wire_us, "us");
  add("wire.core_to_wire_us", h.core_to_wire_us, "us");
  add("net.wire_to_handler_us", h.wire_to_handler_us, "us");
  add("net.send_calls_per_datagram",
      ratio(static_cast<double>(t.frames.send_calls), static_cast<double>(t.frames.datagrams)),
      "count");
  add("net.send_ns_per_datagram",
      ratio(static_cast<double>(t.frames.send_ns), static_cast<double>(t.frames.datagrams)),
      "ns");
  add("net.bytes_per_delivery", static_cast<double>(t.frames.bytes) / D, "B");
  const KindAgg& task = t[SpanKind::kTask];
  add("sim.tasks_per_delivery", static_cast<double>(task.count) / D, "count");
  add("sim.timers_armed_per_delivery", static_cast<double>(t.timers_armed) / D, "count");
  add("sim.timers_cancelled_share",
      ratio(static_cast<double>(t.timers_cancelled), static_cast<double>(t.timers_armed)),
      "share");
  add("sim.task_self_us",
      ratio(static_cast<double>(task.self_ns), static_cast<double>(task.count)) / 1e3, "us");
  std::vector<float> qw = t.qwait_us;
  add("sim.queue_wait_p50_us", percentile(qw, 0.50), "us");
  add("sim.queue_wait_p99_us", percentile(qw, 0.99), "us");
  add("sim.queue_wait_per_delivery_us", h.queue_wait_us, "us");
  // Busy shares: per executor on the UDP run; on the single simulation
  // thread, time spent handling core endpoints' datagrams vs members' work.
  double core_busy = udp ? static_cast<double>(t.busy_ns[0])
                         : static_cast<double>(t[SpanKind::kRecvCore].total_ns +
                                               t[SpanKind::kRecvDisco].total_ns);
  double edge_busy = udp ? static_cast<double>(t.busy_ns[1])
                         : static_cast<double>(t[SpanKind::kRecvMember].total_ns +
                                               t[SpanKind::kPublish].total_ns);
  add("sim.core_busy_share", ratio(core_busy, wall_ns), "share");
  add("sim.edge_busy_share", ratio(edge_busy, wall_ns), "share");
  const KindAgg& core = t[SpanKind::kRecvCore];
  add("bus.core_ingress_self_us",
      ratio(static_cast<double>(core.self_ns), static_cast<double>(core.count)) / 1e3, "us");
  const KindAgg& pub = t[SpanKind::kPublish];
  add("bus.client_publish_us",
      ratio(static_cast<double>(pub.clean_ns), static_cast<double>(pub.count)) / 1e3, "us");
  add("bus.client_deliver_us",
      static_cast<double>(t[SpanKind::kRecvMember].self_ns) / D / 1e3, "us");
  add("bus.deliveries_per_publish",
      ratio(static_cast<double>(traced.bus_delta.deliveries), P), "count");
  add("bus.encodes_per_publish", ratio(static_cast<double>(traced.bus_delta.encodes), P),
      "count");
  add("bus.events_shed", static_cast<double>(traced.bus_delta.events_shed), "count");
  add("policy.auth_check_ns", r.auth_ns, "ns");
  add("policy.auth_checks_per_publish", ratio(static_cast<double>(traced.auth_checks), P),
      "count");
  add("policy.obligations_fired_per_publish", ratio(derived, P), "count");
  add("discovery.join_ms", quantile(untraced.join_ms, 0.5), "ms");
  add("harness.generator_lag_p99_us", untraced.generator_lag_p99_us, "us");
  double overhead = 0;
  if (udp) {
    overhead = ratio(untraced.deliveries_per_s, traced.deliveries_per_s) - 1;
  } else if (untraced_ns > 0) {
    overhead = wall_ns / D / untraced_ns - 1;
  }
  add("harness.trace_overhead_share", overhead, "share");

  // ---- Table 1: where the time goes (span self times), per delivery.
  std::string& out = rep.table;
  char line[256];
  auto row = [&](const char* layer, const char* what, double count, double ns_op,
                 double us, double ref_ns) {
    std::snprintf(line, sizeof(line), "  %-10s %-40s %10.3f %10.1f %10.3f %7.1f%%\n",
                  layer, what, count, ns_op, us, ref_ns > 0 ? 100.0 * us * 1e3 / ref_ns : 0.0);
    out += line;
  };
  std::snprintf(line, sizeof(line),
                "\nper-layer table, %s seed %llu: %.0f traced deliveries in %.2f s "
                "(%llu spans, %.1f ns each subtracted)\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                D, traced.traced_wall_s, static_cast<unsigned long long>(t.spans),
                span_cost);
  out += line;
  std::snprintf(line, sizeof(line), "  %-10s %-40s %10s %10s %10s %8s\n", "layer",
                "span self time (traced run)", "ops/deliv", "ns/op", "us/deliv",
                "share");
  out += line;
  struct SpanRow {
    const char* layer;
    const char* what;
    SpanKind kind;
  };
  const SpanRow span_rows[] = {
      {"sim", "executor dispatch (SimExecutor::step)", SpanKind::kStep},
      {"sim", "executor tasks and timer callbacks", SpanKind::kTask},
      {"bus", "core ingress: route/auth/match/proxy/chan", SpanKind::kRecvCore},
      {"discovery", "discovery endpoint", SpanKind::kRecvDisco},
      {"bus", "member ingress: channel/decode/dispatch", SpanKind::kRecvMember},
      {"net", "transport send", SpanKind::kSend},
      {"bus", "BusClient::publish", SpanKind::kPublish},
      {"harness", "subscriber handlers (oracle)", SpanKind::kDeliver},
  };
  double ref = untraced_ns;
  double covered_ns = 0;
  for (const SpanRow& s : span_rows) {
    const KindAgg& a = t[s.kind];
    double ns = static_cast<double>(a.self_ns) - span_cost * static_cast<double>(a.count);
    covered_ns += ns;
    row(s.layer, s.what, static_cast<double>(a.count) / D,
        ratio(ns, static_cast<double>(a.count)), ns / D / 1e3, ref);
  }
  double outside_ns = udp ? 0 : wall_ns - static_cast<double>(t.toplevel_ns);
  if (!udp) {
    row("harness", "generator and round loop (outside spans)", 0, 0, outside_ns / D / 1e3, ref);
  }
  double sum_ns = (covered_ns + outside_ns) / D;
  double err = ratio(sum_ns, ref) - 1;
  std::snprintf(line, sizeof(line),
                "  %-51s %32.3f   vs untraced %s %.3f us/delivery: %+.1f%% "
                "(tolerance %.0f%%)\n",
                "sum", sum_ns / 1e3, udp ? "run's CPU" : "slices' wall", ref / 1e3, 100 * err,
                100 * kReconcileTolerance);
  out += line;
  std::snprintf(line, sizeof(line), "  %-51s %32.3f   (tracing overhead, excluded)\n",
                "recorder's own decoding", static_cast<double>(t[SpanKind::kOverhead].total_ns) / D / 1e3);
  out += line;
  add("harness.reconcile_error_share", std::abs(err), "share");
  if (!udp && std::abs(err) > kReconcileTolerance) {
    rep.flags.push_back("span table misses the untraced wall time by more than the tolerance");
  }

  // ---- Table 2: what the time is spent on (replayed kernels), per delivery.
  std::snprintf(line, sizeof(line), "  %-10s %-40s %10s %10s %10s %8s\n", "layer",
                "replayed through the public API", "ops/deliv", "ns/op", "us/deliv",
                "share");
  out += line;
  double datagrams = static_cast<double>(t.frames.datagrams) / D;
  double replay_ns = 0;
  auto kernel = [&](const char* layer, const char* what, double ops, double ns_op,
                    bool counted) {
    row(layer, what, ops, ns_op, ops * ns_op / 1e3, ref);
    if (counted) replay_ns += ops * ns_op;
  };
  kernel("wire", "Packet::encode (incl. crc32)", datagrams, r.packet_encode_ns, true);
  kernel("wire", "Packet::decode (incl. crc32)", datagrams, r.packet_decode_ns, true);
  kernel("common", "  of which crc32 (bytes)", crc_bytes / D, r.crc_ns_per_byte, false);
  kernel("pubsub", "encode_event (publisher + core)", (member_publishes + P) / D,
         r.encode_event_ns, true);
  kernel("pubsub", "decode_event (core + subscribers)", (member_publishes + D) / D,
         r.decode_event_ns, true);
  kernel("pubsub", "SubscriptionRegistry::match", P / D, r.match_ns, true);
  kernel("policy", "AuthorisationService::check",
         static_cast<double>(traced.auth_checks) / D, r.auth_ns, true);
  double in_spans = static_cast<double>(t[SpanKind::kTask].self_ns + core.self_ns +
                                        t[SpanKind::kRecvDisco].self_ns +
                                        t[SpanKind::kRecvMember].self_ns + pub.self_ns) / D;
  std::snprintf(line, sizeof(line),
                "  %-51s %32.3f   %.1f%% of the untraced reference; %.3f us/delivery "
                "outside the replayed kernels\n",
                "replayed kernels", replay_ns / 1e3, 100 * ratio(replay_ns, ref),
                (ref - replay_ns) / 1e3);
  out += line;
  if (replay_ns > in_spans * (1 + kReconcileTolerance)) {
    rep.flags.push_back("replayed kernels exceed the span time they run in");
  }

  // ---- Per-hop latency means.
  double hop_err = ratio(h.sum(), untraced.latency_mean_us) - 1;
  std::snprintf(line, sizeof(line),
                "  per-hop means over %zu traced deliveries (us): generator lag %.2f + "
                "publish->wire %.2f + core->wire %.2f + wire->handler %.2f + queue "
                "wait %.2f = %.2f vs untraced mean latency %.2f: %+.1f%%\n",
                h.deliveries, h.lag_us, h.publish_to_wire_us, h.core_to_wire_us,
                h.wire_to_handler_us, h.queue_wait_us, h.sum(), untraced.latency_mean_us,
                100 * hop_err);
  out += line;
  if (udp && std::abs(hop_err) > kReconcileTolerance) {
    rep.flags.push_back("per-hop latency means miss the untraced mean latency by more "
                        "than the tolerance");
  }
  return rep;
}

}  // namespace perfbench
