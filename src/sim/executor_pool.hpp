// ExecutorPool: per-core sharding of the real-network datapath
// (DESIGN.md §12).
//
// Each shard is a RealExecutor with a dedicated consumer thread, pinned
// best-effort to one CPU. Protocol components (channels, proxies, members)
// are assigned to shards by peer ServiceId through a stable hash, so:
//   - all state for one peer lives on exactly one shard — the single-owner
//     threading model of DESIGN.md §10 carries over unchanged, shard by
//     shard (AMUSE_AFFINITY labels + AMUSE_ASSERT_ON_EXECUTOR still prove
//     ownership, now against the shard's consumer thread);
//   - per-peer FIFO is preserved — a peer's datagram batches are always
//     posted to the same shard;
//   - the assignment survives leave/rejoin: the hash is a pure function of
//     the 48-bit ServiceId, with no allocation table to drift.
//
// The pool starts its consumer threads in the constructor and stops/joins
// them in the destructor (or an explicit stop()). Everything here is
// thread-safe: shard lookup is pure, and the RealExecutors' post()/
// schedule_at()/cancel() are the sanctioned cross-thread entry points.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/service_id.hpp"
#include "sim/real_executor.hpp"

namespace amuse {

struct ExecutorPoolOptions {
  /// Number of shards; 0 = one per hardware thread (at least 1).
  std::size_t shards = 0;
  /// Pin each shard's consumer thread to a CPU (Linux, best-effort: pinning
  /// failure is ignored, never fatal — containers often mask CPUs).
  bool pin_threads = true;
};

class ExecutorPool {
 public:
  explicit ExecutorPool(ExecutorPoolOptions options = {});
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  [[nodiscard]] RealExecutor& shard(std::size_t i) { return shards_[i]->ex; }

  /// Stable shard assignment for a peer: splitmix64 over the raw 48-bit id,
  /// reduced mod size(). Same id -> same shard, across rejoins and across
  /// pool instances of the same size.
  [[nodiscard]] std::size_t shard_index(ServiceId peer) const;
  [[nodiscard]] RealExecutor& shard_for(ServiceId peer) {
    return shard(shard_index(peer));
  }

  /// Stops every shard's run loop and joins the threads. Idempotent; the
  /// destructor calls it. Tasks already drained by a shard still finish
  /// (RealExecutor::stop() semantics).
  void stop();

 private:
  struct Shard {
    RealExecutor ex;
    std::thread thread;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopped_{false};
};

}  // namespace amuse
