#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE  // pthread_setaffinity_np / CPU_SET
#endif

#include "sim/executor_pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace amuse {
namespace {

void pin_current_thread(std::size_t cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % CPU_SETSIZE, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

ExecutorPool::ExecutorPool(ExecutorPoolOptions options) {
  std::size_t n = options.shards;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Threads start after every Shard exists so shard() is safe the moment
  // the constructor returns.
  for (std::size_t i = 0; i < n; ++i) {
    Shard* s = shards_[i].get();
    bool pin = options.pin_threads;
    s->thread = std::thread([s, i, pin] {
      if (pin) pin_current_thread(i);
      s->ex.run();
    });
  }
}

ExecutorPool::~ExecutorPool() { stop(); }

std::size_t ExecutorPool::shard_index(ServiceId peer) const {
  // splitmix64: cheap, well-mixed, and a pure function of the id — the
  // stability guarantee channels rely on across rejoin.
  std::uint64_t x = peer.raw() + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

void ExecutorPool::stop() {
  if (stopped_.exchange(true)) return;
  // A direct stop() racing a consumer thread that has not yet *entered*
  // run() would be cleared at loop entry and the join below would hang.
  // Posting a task that stops the loop is race-free in both orders: an
  // already-running loop drains and executes it, a not-yet-started loop
  // finds it queued on entry.
  for (auto& s : shards_) {
    RealExecutor* ex = &s->ex;
    ex->post([ex] { ex->stop(); });
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

}  // namespace amuse
