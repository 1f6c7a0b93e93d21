// Real UDP datagram transport (the prototype configuration of §IV), rebuilt
// for kernel-rate traffic (DESIGN.md §12).
//
// - The unicast socket is bound with port 0 so "the operating system is free
//   to choose the port number", and the 48-bit ServiceId is derived from the
//   socket's address and port — exactly the prototype's rule.
// - broadcast() uses a loopback multicast group on a port "known by
//   services" (the prototype's arbitrarily-chosen broadcast port), so
//   several endpoints in one or many processes on a machine all hear
//   discovery beacons.
// - A background thread polls the sockets and posts datagrams onto the one
//   owning Executor, keeping all protocol logic single-threaded (a cell's
//   bus, clients and channels are single-executor affine, DESIGN.md §10).
//   That thread is annotated AMUSE_RECEIVE_CONTEXT: scripts/check_affinity.py
//   proves it never calls into executor-owned state except through post().
//
// Datapath batching: where the platform provides recvmmsg/sendmmsg
// (cmake/NetFeatures.cmake probes; AMUSE_HAVE_MMSG), the receive thread
// harvests up to UdpOptions::recv_batch datagrams per syscall into a ring
// of recycled slot buffers and posts ONE executor task per harvest, and
// send_batch() flushes a whole burst through one sendmmsg. Per-event fixed
// costs (syscall, lock round, wakeup) then amortise across the batch —
// Gryphon's lesson that broker throughput is won or lost in per-message
// fixed costs, applied to the kernel boundary. UdpOptions::batch_io=false
// (or a platform without mmsg) keeps the original one-syscall-per-datagram
// wire behaviour, byte-identical on the wire: batching changes how many
// datagrams move per syscall, never their bytes or per-peer order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/metrics.hpp"
#include "net/transport.hpp"
#include "sim/executor.hpp"

struct sockaddr_in;

namespace amuse {

struct UdpOptions {
  /// The agreed "discovery" port every service listens on for broadcasts.
  /// 0 lets the kernel choose one (see UdpTransport::broadcast_port()):
  /// the first endpoint of a private group opens with 0 and the others
  /// join the port it reports.
  std::uint16_t broadcast_port = 45'999;
  /// Loopback multicast group used to emulate the shared medium.
  const char* multicast_group = "239.255.42.1";
  /// Use recvmmsg/sendmmsg batched syscalls where compiled in
  /// (AMUSE_HAVE_MMSG). false forces the legacy per-datagram
  /// recvfrom/sendto path — the bench A/B baseline and the behaviour of
  /// platforms without the mmsg calls.
  bool batch_io = true;
  /// recvmmsg harvest depth: slot buffers acquired per receive syscall.
  /// Values <= 1 behave like the legacy path.
  std::size_t recv_batch = 16;
};

/// Snapshot of the transport's wire counters (see stats()).
struct UdpTransportStats {
  Counter datagrams_sent;                // unicast + broadcast handed to the kernel
  Counter bytes_sent;                    // payload bytes of successful sends
  Counter send_failures;                 // sendto()/sendmmsg() reported an error
  Counter send_syscalls;                 // sendto/sendmmsg invocations
  Counter batches_sent;                  // sendmmsg flushes covering >= 2 datagrams
  Counter datagrams_received;            // posted to the executor
  Counter bytes_received;
  Counter recv_syscalls;                 // recvfrom/recvmmsg calls returning >= 1 datagram
  Counter recv_batches;                  // executor posts carrying >= 2 datagrams
  Counter max_recv_batch;                // largest single harvest
  Counter buffers_recycled;              // receive slots served from the freelist
  Counter buffers_fresh;                 // receive slots newly allocated
  Counter dropped_no_handler;            // arrived with no handler installed
  Counter dropped_stale_handler;         // reached a handler replaced (or
                                         // cleared) before delivery
};

/// Small freelist of fixed-size receive slot buffers. The receive thread
/// acquires slots for each recvmmsg harvest; the executor task that
/// delivered the batch releases them. Shared (via shared_ptr) between the
/// transport and its in-flight delivery tasks, so a task completing after
/// the transport died still has somewhere safe to return its buffers.
class UdpBufferPool {
 public:
  UdpBufferPool(std::size_t slot_bytes, std::size_t max_free)
      : slot_bytes_(slot_bytes), max_free_(max_free) {}

  /// A slot-sized buffer, recycled when the freelist has one.
  [[nodiscard]] Bytes acquire();
  /// Returns a slot to the freelist (freed instead once max_free is held).
  void release(Bytes buffer);

  Counter recycled;  // buffers_recycled and buffers_fresh of stats()
  Counter fresh;

 private:
  std::size_t slot_bytes_;
  std::size_t max_free_;
  Mutex mu_;
  std::vector<Bytes> free_ AMUSE_GUARDED_BY(mu_);
};

class UdpTransport final : public Transport {
 public:
  using Options = UdpOptions;

  /// Opens the sockets (throws std::system_error on failure) and starts the
  /// receive thread. Every harvest is posted, in arrival order, as one task
  /// on `executor`, so the installed handler runs on that executor alone.
  static std::unique_ptr<UdpTransport> open(Executor& executor,
                                            Options options = Options());

  ~UdpTransport() override;

  [[nodiscard]] ServiceId local_id() const override { return id_; }
  /// The port the discovery socket is bound to and broadcast() sends to:
  /// Options::broadcast_port, or the kernel's choice when that was 0.
  [[nodiscard]] std::uint16_t broadcast_port() const {
    return options_.broadcast_port;
  }
  AMUSE_EGRESS_CONTEXT void send(ServiceId dst, BytesView data) override;
  AMUSE_EGRESS_CONTEXT void send_batch(
      std::span<const Datagram> batch) override;
  AMUSE_EGRESS_CONTEXT void broadcast(BytesView data) override;
  void set_receive_handler(ReceiveHandler handler) override;

  /// The wire counters. The buffer pool and the delivery tasks, which may
  /// outlive the transport, own the last three.
  [[nodiscard]] UdpTransportStats stats() const {
    UdpTransportStats s = stats_;
    s.buffers_recycled = buffers_->recycled;
    s.buffers_fresh = buffers_->fresh;
    s.dropped_stale_handler = *dropped_stale_handler_;
    return s;
  }

 private:
  UdpTransport(Executor& executor, int unicast_fd, int multicast_fd,
               ServiceId id, const Options& options);

  /// One received datagram travelling from the receive thread to its
  /// executor task: the slot buffer is recycled after delivery.
  struct Inbound {
    ServiceId src;
    Bytes buffer;
    std::size_t length = 0;
  };

  /// Body of the background receive thread — not an executor context.
  AMUSE_RECEIVE_CONTEXT void receive_loop();
  /// Drains one readable socket: mmsg harvests when enabled, one legacy
  /// recvfrom otherwise. Runs on the receive thread.
  void drain_fd(int fd);
  bool drain_batched(int fd);
  void drain_legacy(int fd);
  /// Posts one delivery task for a harvest, preserving arrival order. Runs
  /// on the receive thread.
  void post_to(std::vector<Inbound> items);
  void send_burst_mmsg(std::span<const Datagram> batch);
  /// One sendto on the unicast socket (send() and broadcast()).
  void send_to(const sockaddr_in& addr, BytesView data);

  Executor& executor_;
  int unicast_fd_;
  int multicast_fd_;
  ServiceId id_;
  Options options_;  // broadcast_port holds the bound port
  std::shared_ptr<UdpBufferPool> buffers_;
  struct RecvScratch;    // mmsg headers reused across harvests (cpp-only)
  std::unique_ptr<RecvScratch> scratch_;
  // Current receive handler. set_receive_handler() swaps the shared_ptr
  // under handler_mu_ (callable from any thread); the receive thread takes
  // a snapshot per harvest and posts a weak reference, so a handler that
  // is replaced — or a transport destroyed — before the posted task runs is
  // never invoked (the batch counts as dropped_stale_handler), while a
  // handler mid-invoke stays alive through the task's temporary shared_ptr.
  mutable Mutex handler_mu_;
  std::shared_ptr<const ReceiveHandler> handler_ AMUSE_GUARDED_BY(handler_mu_);
  // The send side is written from any sending thread (add_shared), the
  // receive side by the receive thread alone.
  UdpTransportStats stats_;
  // Shared with the delivery tasks, which may run after the transport died.
  std::shared_ptr<Counter> dropped_stale_handler_ =
      std::make_shared<Counter>();
  std::atomic<bool> stop_{false};
  std::thread receiver_;
};

}  // namespace amuse
