// Real-wire UDP datapath benchmark (DESIGN.md §12): events/sec over
// loopback sockets, A/B between the legacy one-syscall-per-datagram path
// and the batched recvmmsg/sendmmsg path, swept over payload size ×
// receive batch depth.
//
// Topology: two UdpTransports in one process (sender → receiver), each
// posting to its own RealExecutor on its own consumer thread. The
// sender thread pushes timestamped datagrams through Transport::send_batch
// (or per-datagram send() in legacy mode) under a credit window: it never
// holds more than `credit` datagrams outstanding beyond what the receiver
// has delivered, so the kernel socket queue — not the bench — is the only
// place datagrams wait. UDP may still drop under pressure; a stalled
// window is written off after a grace period so the bench always
// terminates, and delivered (not sent) datagrams are what's rated.
//
// Latency: every 16th datagram carries a steady-clock timestamp in its
// first 8 bytes; the receive handler turns those into p50/p99 samples.
//
// `--smoke` runs five small A/B pairs and exits non-zero unless the batched
// path's median events/sec at least matches legacy's and the batch counters
// prove batching actually happened (ctest `bench.udp_smoke`); a build
// without recvmmsg/sendmmsg runs one pair and checks its counters.
// Environments that cannot open sockets exit 77 (ctest SKIP_RETURN_CODE).
// `--json PATH` writes the sweep + A/B verdict for the bench artifact.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "net/udp_transport.hpp"
#include "sim/real_executor.hpp"

namespace amuse::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// One RealExecutor running on its own thread. stop() posts the stop task
/// rather than calling RealExecutor::stop() directly: a direct stop that
/// lands before the thread has entered run() is cleared on entry and the
/// join would hang.
class ExecutorThread {
 public:
  ExecutorThread() : thread_([this] { ex_.run(); }) {}
  ~ExecutorThread() { stop(); }
  ExecutorThread(const ExecutorThread&) = delete;
  ExecutorThread& operator=(const ExecutorThread&) = delete;

  RealExecutor& executor() { return ex_; }

  /// Stops the loop after the tasks queued so far and joins. Idempotent.
  void stop() {
    if (!thread_.joinable()) return;
    ex_.post([this] { ex_.stop(); });
    thread_.join();
  }

 private:
  RealExecutor ex_;
  std::thread thread_;
};

struct CellParams {
  std::size_t payload = 250;   // datagram payload bytes (>= 16)
  std::size_t depth = 16;      // recv_batch and send burst size
  bool batched = true;         // false = legacy recvfrom/sendto A/B column
  std::size_t events = 60'000;
  std::size_t credit = 1024;   // max datagrams outstanding past delivery
};

struct CellResult {
  double events_per_sec = 0;
  double send_dgrams_per_syscall = 0;
  double recv_dgrams_per_syscall = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  UdpTransportStats rx;  // receiver-side counters
  UdpTransportStats tx;  // sender-side counters
};

void stamp_now(std::uint8_t* dst) {
  auto ns = static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
  std::memcpy(dst, &ns, sizeof(ns));
}

double stamped_age_us(const std::uint8_t* src) {
  std::uint64_t ns = 0;
  std::memcpy(&ns, src, sizeof(ns));
  auto now = static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
  return now <= ns ? 0.0 : static_cast<double>(now - ns) / 1000.0;
}

CellResult run_cell(const CellParams& p) {
  CellResult r;

  UdpOptions rx_opts;
  rx_opts.batch_io = p.batched;
  rx_opts.recv_batch = p.batched ? p.depth : 1;
  // Nothing here broadcasts: kernel-chosen discovery ports keep other
  // processes' beacons out of the delivered count.
  rx_opts.broadcast_port = 0;
  UdpOptions tx_opts = rx_opts;

  ExecutorThread rx_loop;
  ExecutorThread tx_loop;
  auto receiver = UdpTransport::open(rx_loop.executor(), rx_opts);
  auto sender = UdpTransport::open(tx_loop.executor(), tx_opts);

  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> last_delivery_ns{0};
  // Every 16th datagram is stamped. Only the receiver's executor thread
  // writes the samples; reserving up front keeps allocation off the hot
  // path.
  std::vector<double> latencies;
  latencies.reserve(p.events / 16 + 1);

  receiver->set_receive_handler([&](ServiceId, BytesView data) {
    if (data.size() >= 16 && data[8] == 1) {
      latencies.push_back(stamped_age_us(data.data()));
    }
    delivered.fetch_add(1, std::memory_order_relaxed);
    last_delivery_ns.store(static_cast<std::uint64_t>(
                               Clock::now().time_since_epoch().count()),
                           std::memory_order_relaxed);
  });

  const ServiceId dst = receiver->local_id();
  const auto start = Clock::now();

  // Sender: bursts of `depth` datagrams under the credit window. UDP can
  // drop on loopback under pressure; when delivery stalls for 50 ms the
  // outstanding balance is written off so the window reopens.
  std::uint64_t sent = 0;
  std::uint64_t written_off = 0;
  auto last_progress = Clock::now();
  std::uint64_t progress_mark = 0;
  Bytes scratch(p.payload * p.depth, 0x5A);
  while (sent < p.events) {
    std::uint64_t got = delivered.load(std::memory_order_relaxed);
    if (got != progress_mark) {
      progress_mark = got;
      last_progress = Clock::now();
    }
    std::uint64_t outstanding = sent - got - written_off;
    if (outstanding >= p.credit) {
      if (Clock::now() - last_progress > std::chrono::milliseconds(50)) {
        written_off += outstanding;  // assume dropped; reopen the window
        last_progress = Clock::now();
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    std::size_t burst = std::min({p.depth, p.events - static_cast<std::size_t>(sent),
                                  static_cast<std::size_t>(p.credit - outstanding)});
    std::vector<Transport::Datagram> dgrams;
    dgrams.reserve(burst);
    for (std::size_t i = 0; i < burst; ++i) {
      std::uint8_t* buf = scratch.data() + i * p.payload;
      bool stamped = (sent + i) % 16 == 0;
      buf[8] = stamped ? 1 : 0;
      if (stamped) stamp_now(buf);
      dgrams.push_back(Transport::Datagram{dst, BytesView(buf, p.payload)});
    }
    if (p.batched) {
      sender->send_batch(dgrams);
    } else {
      for (const auto& d : dgrams) sender->send(d.dst, d.data);
    }
    sent += burst;
  }

  // Quiesce: the run ends when delivery stops moving (drops keep
  // `delivered` below `sent` forever, so equality is not awaited).
  for (;;) {
    std::uint64_t before = delivered.load(std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (delivered.load(std::memory_order_relaxed) == before) break;
  }

  r.sent = sent;
  r.delivered = delivered.load(std::memory_order_relaxed);
  std::uint64_t end_ns = last_delivery_ns.load(std::memory_order_relaxed);
  auto start_ns = static_cast<std::uint64_t>(
      start.time_since_epoch().count());
  double elapsed_s = end_ns > start_ns
                         ? static_cast<double>(end_ns - start_ns) / 1e9
                         : 1e-9;
  r.events_per_sec = static_cast<double>(r.delivered) / elapsed_s;

  r.rx = receiver->stats();
  r.tx = sender->stats();
  if (r.tx.send_syscalls > 0) {
    r.send_dgrams_per_syscall = static_cast<double>(r.tx.datagrams_sent) /
                                static_cast<double>(r.tx.send_syscalls);
  }
  if (r.rx.recv_syscalls > 0) {
    r.recv_dgrams_per_syscall =
        static_cast<double>(r.rx.datagrams_received) /
        static_cast<double>(r.rx.recv_syscalls);
  }

  // Transports die before their executors: the receive threads stop, then
  // the executor loops drain and join.
  receiver.reset();
  sender.reset();
  rx_loop.stop();
  tx_loop.stop();

  // Only now is `latencies` safe to read: joining the receiver's executor
  // thread above is the happens-before edge for the handler's writes.
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    r.p50_us = latencies[latencies.size() / 2];
    r.p99_us = latencies[static_cast<std::size_t>(
        static_cast<double>(latencies.size() - 1) * 0.99)];
  }
  return r;
}

void print_cell(const CellParams& p, const CellResult& r) {
  std::printf(
      "  %7zu B  depth %2zu  %-7s  %10.0f ev/s  "
      "dg/syscall tx %5.1f rx %5.1f  p50 %6.1f us  p99 %7.1f us  "
      "(%llu/%llu delivered)\n",
      p.payload, p.depth, p.batched ? "batched" : "legacy",
      r.events_per_sec, r.send_dgrams_per_syscall, r.recv_dgrams_per_syscall,
      r.p50_us, r.p99_us, static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.sent));
}

/// Probe: can this environment open UDP sockets at all? Sandboxes without
/// network namespaces cannot, and the bench must skip, not fail.
bool sockets_available() {
  try {
    RealExecutor ex;
    auto t = UdpTransport::open(ex, UdpOptions{});
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "udp_datapath: no socket support (%s); skipping\n",
                 e.what());
    return false;
  }
}

int run_smoke() {
  std::printf("udp_datapath smoke: batched vs legacy loopback A/B\n");
  CellParams legacy;
  legacy.events = 6000;
  legacy.batched = false;
  CellParams batched = legacy;
  batched.batched = true;

  // One A/B pair is not enough: the legacy rate is bimodal. Usually its
  // receive pipeline (one wakeup per datagram) falls behind the sender and
  // it runs at well under half the batched rate; sometimes, depending on
  // what the other CPUs are doing, it keeps up, and then both paths run at
  // the sender's per-datagram kernel cost and tie. So the smoke runs five
  // pairs, alternating which path goes first, and compares the medians.
  // Without recvmmsg/sendmmsg both cells take the one per-datagram path,
  // and one pair checks its counters.
#if defined(AMUSE_HAVE_MMSG)
  constexpr int kPairs = 5;
#else
  constexpr int kPairs = 1;
#endif
  std::vector<CellResult> lrs;
  std::vector<CellResult> brs;
  for (int i = 0; i < kPairs; ++i) {
    for (bool run_legacy : {i % 2 == 0, i % 2 != 0}) {
      const CellParams& p = run_legacy ? legacy : batched;
      CellResult r = run_cell(p);
      print_cell(p, r);
      (run_legacy ? lrs : brs).push_back(r);
    }
  }
  auto median_rate = [](const std::vector<CellResult>& rs) {
    std::vector<double> rates;
    for (const CellResult& r : rs) rates.push_back(r.events_per_sec);
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
  };
  const double legacy_rate = median_rate(lrs);
  const double batched_rate = median_rate(brs);
  std::printf("  median of %d: legacy %.0f ev/s, batched %.0f ev/s\n", kPairs,
              legacy_rate, batched_rate);

  int violations = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "udp_datapath smoke: FAIL %s\n", what);
      ++violations;
    }
  };
#if defined(AMUSE_HAVE_MMSG)
  check(batched_rate >= legacy_rate, "batched events/sec >= legacy");
  for (const CellResult& br : brs) {
    check(br.rx.recv_batches > 0, "receiver posted multi-datagram batches");
    check(br.rx.max_recv_batch >= 2, "recvmmsg harvested >= 2 datagrams");
    check(br.tx.batches_sent > 0, "sender flushed sendmmsg batches");
    check(br.rx.buffers_recycled > 0, "receive slots recycled via freelist");
    check(br.delivered > legacy.events / 2, "batched path delivered majority");
  }
  const char* verdict = "batched >= legacy, counters consistent";
#else
  // Built without recvmmsg/sendmmsg: both cells take the per-datagram
  // path, so there is no batched path to compare, only its counters.
  for (const std::vector<CellResult>* rs : {&lrs, &brs}) {
    for (const CellResult& r : *rs) {
      check(r.tx.send_syscalls == r.tx.datagrams_sent,
            "one send syscall per datagram");
      check(r.rx.recv_syscalls == r.rx.datagrams_received &&
                r.rx.max_recv_batch == 1,
            "one receive syscall per datagram");
    }
  }
  for (const CellResult& br : brs) {
    check(br.delivered > legacy.events / 2, "batched path delivered majority");
  }
  const char* verdict = "per-datagram path only, counters consistent";
#endif
  for (const CellResult& lr : lrs) {
    check(lr.delivered > legacy.events / 2, "legacy path delivered majority");
  }
  if (violations != 0) {
    std::fprintf(stderr, "udp_datapath smoke: %d violation(s)\n", violations);
    return 1;
  }
  std::printf("udp_datapath smoke: %s\n", verdict);
  return 0;
}

int run_full(const char* json_path) {
  std::printf("UDP loopback datapath: events/sec, batched vs legacy\n");
  print_header("payload x depth sweep; legacy = one syscall per "
               "datagram (A/B baseline)",
               "  payload   depth  mode");

  // The A/B acceptance cell: 250 B payloads, batched at depth 32 (the sweep
  // knee — deeper harvests amortise the syscall + wakeup further but stop
  // paying once the socket queue rarely holds that many) against the legacy
  // one-syscall-per-datagram path.
  CellParams ab_legacy;
  ab_legacy.payload = 250;
  ab_legacy.batched = false;
  CellParams ab_batched = ab_legacy;
  ab_batched.batched = true;
  ab_batched.depth = 32;
  CellResult ab_l = run_cell(ab_legacy);
  print_cell(ab_legacy, ab_l);
  CellResult ab_b = run_cell(ab_batched);
  print_cell(ab_batched, ab_b);
  double speedup = ab_l.events_per_sec > 0
                       ? ab_b.events_per_sec / ab_l.events_per_sec
                       : 0;

  // Sweep the batched path.
  std::vector<std::pair<CellParams, CellResult>> sweep;
  for (std::size_t payload : {std::size_t{64}, std::size_t{1024}}) {
    for (std::size_t depth : {std::size_t{8}, std::size_t{32}}) {
      CellParams p;
      p.payload = payload;
      p.depth = depth;
      CellResult r = run_cell(p);
      print_cell(p, r);
      sweep.emplace_back(p, r);
    }
  }

  std::printf("\nA/B at 250 B: %.0f -> %.0f ev/s (%.2fx), recv dg/syscall "
              "%.1f, send dg/syscall %.1f\n",
              ab_l.events_per_sec, ab_b.events_per_sec, speedup,
              ab_b.recv_dgrams_per_syscall, ab_b.send_dgrams_per_syscall);

  return write_json(json_path, [&](std::FILE* f) {
    std::fprintf(f,
                 "{\n  \"bench\": \"udp_datapath\",\n"
                 "  \"ab_250B\": {\n"
                 "    \"legacy_events_per_sec\": %.0f,\n"
                 "    \"batched_events_per_sec\": %.0f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"batched_recv_datagrams_per_syscall\": %.2f,\n"
                 "    \"batched_send_datagrams_per_syscall\": %.2f,\n"
                 "    \"batched_p50_us\": %.1f,\n"
                 "    \"batched_p99_us\": %.1f,\n"
                 "    \"legacy_p50_us\": %.1f,\n"
                 "    \"legacy_p99_us\": %.1f,\n"
                 "    \"buffers_recycled\": %llu,\n"
                 "    \"buffers_fresh\": %llu\n  },\n"
                 "  \"sweep\": [\n",
                 ab_l.events_per_sec, ab_b.events_per_sec, speedup,
                 ab_b.recv_dgrams_per_syscall, ab_b.send_dgrams_per_syscall,
                 ab_b.p50_us, ab_b.p99_us, ab_l.p50_us, ab_l.p99_us,
                 static_cast<unsigned long long>(ab_b.rx.buffers_recycled),
                 static_cast<unsigned long long>(ab_b.rx.buffers_fresh));
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& [p, r] = sweep[i];
      std::fprintf(
          f,
          "    {\"payload\": %zu, \"depth\": %zu, "
          "\"events_per_sec\": %.0f, \"recv_dg_per_syscall\": %.2f, "
          "\"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
          p.payload, p.depth, r.events_per_sec,
          r.recv_dgrams_per_syscall, r.p50_us, r.p99_us,
          i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
  });
}

}  // namespace
}  // namespace amuse::bench

int main(int argc, char** argv) {
  using namespace amuse::bench;
  if (!sockets_available()) return 77;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return smoke ? run_smoke() : run_full(json_path_arg(argc, argv));
}
