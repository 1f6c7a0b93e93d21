#if defined(AMUSE_HAVE_MMSG) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE  // recvmmsg/sendmmsg live behind the GNU feature gate
#endif

#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace amuse {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in make_addr(std::uint32_t host_order_addr, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(host_order_addr);
  addr.sin_port = htons(port);
  return addr;
}

/// Receive slots hold a full UDP datagram so harvests never truncate.
constexpr std::size_t kSlotBytes = 65536;

/// Requested SO_RCVBUF/SO_SNDBUF for the unicast socket (best-effort; the
/// kernel clamps to rmem_max/wmem_max). A deep receive buffer is what lets
/// the batched path absorb bursts between harvests instead of dropping on
/// the socket queue.
constexpr int kSocketBufferBytes = 4 << 20;

}  // namespace

Bytes UdpBufferPool::acquire() {
  {
    MutexLock lock(mu_);
    if (!free_.empty()) {
      Bytes buffer = std::move(free_.back());
      free_.pop_back();
      ++recycled;
      return buffer;
    }
  }
  ++fresh;
  return Bytes(slot_bytes_);
}

void UdpBufferPool::release(Bytes buffer) {
  if (buffer.size() != slot_bytes_) buffer.resize(slot_bytes_);
  MutexLock lock(mu_);
  if (free_.size() < max_free_) free_.push_back(std::move(buffer));
}

/// mmsg harvest headers, allocated once and reused by the receive thread
/// across every recvmmsg call (the "reusable ring" of DESIGN.md §12).
struct UdpTransport::RecvScratch {
#if defined(AMUSE_HAVE_MMSG)
  std::vector<mmsghdr> headers;
  std::vector<iovec> iovecs;
  std::vector<sockaddr_in> sources;
#endif
};

std::unique_ptr<UdpTransport> UdpTransport::open(Executor& executor,
                                                 Options options) {
  int ufd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (ufd < 0) throw_errno("socket(unicast)");

  // Bind to loopback with port 0: the OS chooses the port (paper §IV).
  sockaddr_in uaddr = make_addr(INADDR_LOOPBACK, 0);
  if (::bind(ufd, reinterpret_cast<sockaddr*>(&uaddr), sizeof(uaddr)) < 0) {
    ::close(ufd);
    throw_errno("bind(unicast)");
  }
  socklen_t len = sizeof(uaddr);
  if (::getsockname(ufd, reinterpret_cast<sockaddr*>(&uaddr), &len) < 0) {
    ::close(ufd);
    throw_errno("getsockname");
  }
  ServiceId id = ServiceId::from_addr_port(ntohl(uaddr.sin_addr.s_addr),
                                           ntohs(uaddr.sin_port));
  int bytes = kSocketBufferBytes;
  ::setsockopt(ufd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  ::setsockopt(ufd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));

  int mfd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (mfd < 0) {
    ::close(ufd);
    throw_errno("socket(multicast)");
  }
  // Every endpoint of a group shares the discovery port, so the socket is
  // SO_REUSEADDR. A kernel-chosen port (broadcast_port 0) sets it only
  // after the bind: a choice made with it already set may land on a port
  // another group is sharing.
  int one = 1;
  const bool kernel_port = options.broadcast_port == 0;
  if (!kernel_port) {
    ::setsockopt(mfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_in maddr = make_addr(INADDR_ANY, options.broadcast_port);
  len = sizeof(maddr);
  if (::bind(mfd, reinterpret_cast<sockaddr*>(&maddr), sizeof(maddr)) < 0 ||
      ::getsockname(mfd, reinterpret_cast<sockaddr*>(&maddr), &len) < 0) {
    ::close(ufd);
    ::close(mfd);
    throw_errno("bind(multicast)");
  }
  options.broadcast_port = ntohs(maddr.sin_port);  // the kernel's pick for 0
  if (kernel_port) {
    ::setsockopt(mfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  ip_mreq mreq{};
  mreq.imr_multiaddr.s_addr = inet_addr(options.multicast_group);
  mreq.imr_interface.s_addr = htonl(INADDR_LOOPBACK);
  if (::setsockopt(mfd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq)) <
      0) {
    ::close(ufd);
    ::close(mfd);
    throw_errno("IP_ADD_MEMBERSHIP");
  }
  // Send our own multicasts over loopback and hear them locally.
  int loop = 1;
  ::setsockopt(ufd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));
  in_addr mcast_if{};
  mcast_if.s_addr = htonl(INADDR_LOOPBACK);
  ::setsockopt(ufd, IPPROTO_IP, IP_MULTICAST_IF, &mcast_if, sizeof(mcast_if));

  return std::unique_ptr<UdpTransport>(
      new UdpTransport(executor, ufd, mfd, id, options));
}

UdpTransport::UdpTransport(Executor& executor, int unicast_fd,
                           int multicast_fd, ServiceId id,
                           const Options& options)
    : executor_(executor),
      unicast_fd_(unicast_fd),
      multicast_fd_(multicast_fd),
      id_(id),
      options_(options),
      buffers_(std::make_shared<UdpBufferPool>(
          kSlotBytes,
          /*max_free=*/std::max<std::size_t>(8, options.recv_batch * 4))),
      scratch_(std::make_unique<RecvScratch>()),
      receiver_([this] { receive_loop(); }) {}

UdpTransport::~UdpTransport() {
  stop_.store(true);
  receiver_.join();
  ::close(unicast_fd_);
  ::close(multicast_fd_);
  // Drop the handler so datagram tasks still queued on the executor become
  // no-ops (their weak_ptr can no longer lock). The buffer pool stays alive
  // through the tasks' shared_ptr so they can still return their slots.
  MutexLock lock(handler_mu_);
  handler_.reset();
}

void UdpTransport::set_receive_handler(ReceiveHandler handler) {
  auto next = handler
                  ? std::make_shared<const ReceiveHandler>(std::move(handler))
                  : std::shared_ptr<const ReceiveHandler>();
  MutexLock lock(handler_mu_);
  handler_ = std::move(next);
}

void UdpTransport::send(ServiceId dst, BytesView data) {
  send_to(make_addr(dst.addr(), dst.port()), data);
}

void UdpTransport::send_to(const sockaddr_in& addr, BytesView data) {
  ssize_t sent =
      ::sendto(unicast_fd_, data.data(), data.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  stats_.datagrams_sent.add_shared(1);
  stats_.send_syscalls.add_shared(1);
  if (sent < 0) {
    stats_.send_failures.add_shared(1);
  } else {
    stats_.bytes_sent.add_shared(data.size());
  }
}

void UdpTransport::send_batch(std::span<const Datagram> batch) {
#if defined(AMUSE_HAVE_MMSG)
  if (options_.batch_io && batch.size() > 1) {
    send_burst_mmsg(batch);
    return;
  }
#endif
  for (const Datagram& d : batch) send(d.dst, d.data);
}

void UdpTransport::send_burst_mmsg(std::span<const Datagram> batch) {
#if defined(AMUSE_HAVE_MMSG)
  // Flush in bounded chunks: the arrays live on the stack and the kernel
  // caps a single sendmmsg at UIO_MAXIOV anyway.
  constexpr std::size_t kChunk = 64;
  std::array<mmsghdr, kChunk> headers;
  std::array<iovec, kChunk> iovecs;
  std::array<sockaddr_in, kChunk> dests;
  for (std::size_t offset = 0; offset < batch.size(); offset += kChunk) {
    const std::size_t count = std::min(kChunk, batch.size() - offset);
    for (std::size_t i = 0; i < count; ++i) {
      const Datagram& d = batch[offset + i];
      dests[i] = make_addr(d.dst.addr(), d.dst.port());
      // iovec's base is non-const by design; the kernel only reads it.
      iovecs[i] = {const_cast<std::uint8_t*>(d.data.data()), d.data.size()};
      headers[i] = mmsghdr{};
      headers[i].msg_hdr.msg_name = &dests[i];
      headers[i].msg_hdr.msg_namelen = sizeof(dests[i]);
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
    }
    stats_.datagrams_sent.add_shared(count);
    std::size_t done = 0;
    while (done < count) {
      const std::size_t attempted = count - done;
      int n = ::sendmmsg(unicast_fd_, headers.data() + done,
                         static_cast<unsigned int>(attempted), 0);
      stats_.send_syscalls.add_shared(1);
      if (attempted >= 2) stats_.batches_sent.add_shared(1);
      if (n <= 0) {
        stats_.send_failures.add_shared(attempted);
        break;
      }
      std::uint64_t sent_bytes = 0;
      for (std::size_t i = done; i < done + static_cast<std::size_t>(n); ++i) {
        sent_bytes += headers[i].msg_len;
      }
      stats_.bytes_sent.add_shared(sent_bytes);
      done += static_cast<std::size_t>(n);
    }
  }
#else
  (void)batch;
#endif
}

void UdpTransport::broadcast(BytesView data) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = inet_addr(options_.multicast_group);
  addr.sin_port = htons(options_.broadcast_port);
  send_to(addr, data);
}

void UdpTransport::receive_loop() {
  std::array<pollfd, 2> fds{};
  fds[0] = {unicast_fd_, POLLIN, 0};
  fds[1] = {multicast_fd_, POLLIN, 0};

  while (!stop_.load()) {
    int n = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (n <= 0) continue;
    for (pollfd& p : fds) {
      if (!(p.revents & POLLIN)) continue;
      drain_fd(p.fd);
    }
  }
}

void UdpTransport::drain_fd(int fd) {
#if defined(AMUSE_HAVE_MMSG)
  if (options_.batch_io && options_.recv_batch > 1) {
    // Keep harvesting while full batches come back: a full harvest means
    // the socket queue likely still holds datagrams, and poll() need not
    // be consulted again until the queue runs dry.
    while (drain_batched(fd)) {
    }
    return;
  }
#endif
  drain_legacy(fd);
}

bool UdpTransport::drain_batched(int fd) {
#if defined(AMUSE_HAVE_MMSG)
  const std::size_t depth = options_.recv_batch;
  auto& headers = scratch_->headers;
  auto& iovecs = scratch_->iovecs;
  auto& sources = scratch_->sources;
  headers.resize(depth);
  iovecs.resize(depth);
  sources.resize(depth);

  std::vector<Bytes> slots;
  slots.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    slots.push_back(buffers_->acquire());
    iovecs[i] = {slots[i].data(), slots[i].size()};
    headers[i] = mmsghdr{};
    headers[i].msg_hdr.msg_name = &sources[i];
    headers[i].msg_hdr.msg_namelen = sizeof(sources[i]);
    headers[i].msg_hdr.msg_iov = &iovecs[i];
    headers[i].msg_hdr.msg_iovlen = 1;
  }

  int n = ::recvmmsg(fd, headers.data(), static_cast<unsigned int>(depth),
                     MSG_DONTWAIT, nullptr);
  if (n <= 0) {
    for (Bytes& b : slots) buffers_->release(std::move(b));
    return false;
  }
  ++stats_.recv_syscalls;
  stats_.max_recv_batch.raise_to(static_cast<std::uint64_t>(n));

  std::vector<Inbound> items;
  items.reserve(static_cast<std::size_t>(n));
  std::uint64_t received_bytes = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    ServiceId src = ServiceId::from_addr_port(
        ntohl(sources[i].sin_addr.s_addr), ntohs(sources[i].sin_port));
    // A service's own multicasts loop back; the Transport contract is that
    // broadcast() does not deliver to self, so filter them here.
    if (src == id_) {
      buffers_->release(std::move(slots[i]));
      continue;
    }
    received_bytes += headers[i].msg_len;
    items.push_back(Inbound{src, std::move(slots[i]), headers[i].msg_len});
  }
  for (std::size_t i = static_cast<std::size_t>(n); i < depth; ++i) {
    buffers_->release(std::move(slots[i]));
  }
  if (!items.empty()) {
    stats_.datagrams_received += items.size();
    stats_.bytes_received += received_bytes;
    post_to(std::move(items));
  }
  return static_cast<std::size_t>(n) == depth;
#else
  (void)fd;
  return false;
#endif
}

void UdpTransport::drain_legacy(int fd) {
  Bytes slot = buffers_->acquire();
  sockaddr_in src{};
  socklen_t slen = sizeof(src);
  ssize_t got = ::recvfrom(fd, slot.data(), slot.size(), 0,
                           reinterpret_cast<sockaddr*>(&src), &slen);
  if (got < 0) {
    buffers_->release(std::move(slot));
    return;
  }
  ++stats_.recv_syscalls;
  stats_.max_recv_batch.raise_to(1);
  ServiceId src_id = ServiceId::from_addr_port(ntohl(src.sin_addr.s_addr),
                                               ntohs(src.sin_port));
  if (src_id == id_) {
    buffers_->release(std::move(slot));
    return;
  }
  ++stats_.datagrams_received;
  stats_.bytes_received += static_cast<std::uint64_t>(got);
  std::vector<Inbound> items;
  items.push_back(
      Inbound{src_id, std::move(slot), static_cast<std::size_t>(got)});
  post_to(std::move(items));
}

void UdpTransport::post_to(std::vector<Inbound> items) {
  std::weak_ptr<const ReceiveHandler> weak_handler;
  {
    MutexLock lock(handler_mu_);
    if (!handler_) {
      stats_.dropped_no_handler += items.size();
      for (Inbound& item : items) buffers_->release(std::move(item.buffer));
      return;
    }
    weak_handler = handler_;
  }
  if (items.size() >= 2) ++stats_.recv_batches;
  executor_.post([weak_handler, items = std::move(items), pool = buffers_,
                  stale = dropped_stale_handler_]() mutable {
    auto h = weak_handler.lock();
    // The handler snapshotted at harvest was replaced (or the transport
    // died) before this task ran: the batch is dropped, and counted.
    if (!h) *stale += items.size();
    for (Inbound& item : items) {
      if (h) (*h)(item.src, BytesView(item.buffer.data(), item.length));
      pool->release(std::move(item.buffer));
    }
  });
}

}  // namespace amuse
