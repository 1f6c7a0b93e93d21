// TaskQueue: the one scheduled-task store behind both executors.
//
// An indexed binary min-heap of (when, seq, slot) entries over a slab of
// task slots. Freed slots go on a free list and are reused, so once the
// slab and the heap have grown to the working set, scheduling, running and
// cancelling a task allocate nothing (a Task whose captures fit
// std::function's inline buffer included).
//
// Order: tasks run by (when, seq). `seq` is taken on every push, so tasks
// due at the same instant run in push order — the tie-break every
// simulated result rests on.
//
// Ids: a TimerId packs the slot index with the slot's generation, which is
// bumped every time the slot is freed. A stale id (its task already ran or
// was cancelled) therefore never matches a recycled slot, and cancel() of
// it is a no-op. Generations start at 1, so no id is ever kNoTimer.
//
// cancel() takes the entry out of the heap at once (O(log n)): pending
// work is exactly size(), with no cancelled tombstones left behind.
//
// Not thread-safe: the owning executor serialises access (SimExecutor is
// single-threaded; RealExecutor holds its mutex around every call).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/executor.hpp"

namespace amuse {

class TaskQueue {
 public:
  /// Queues `fn` to run at `when`; returns its id (never kNoTimer).
  TimerId push(TimePoint when, Task fn) {
    std::uint32_t index;
    if (free_.empty()) {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{});
    } else {
      index = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[index];
    s.task = std::move(fn);
    s.heap_pos = heap_.size();
    heap_.push_back(Entry{when, next_seq_++, index});
    sift_up(heap_.size() - 1);
    return (static_cast<TimerId>(s.generation) << 32) | index;
  }

  /// Removes the task `id` names and hands it back, so the caller destroys
  /// it only after the queue's bookkeeping is done (a task's destructor may
  /// re-enter the executor). Returns an empty Task for a stale, unknown or
  /// kNoTimer id.
  Task cancel(TimerId id) {
    auto index = static_cast<std::uint32_t>(id);
    auto generation = static_cast<std::uint32_t>(id >> 32);
    if (index >= slots_.size()) return {};
    Slot& s = slots_[index];
    if (s.generation != generation || s.heap_pos == kFree) return {};
    std::size_t pos = s.heap_pos;
    Task fn = release(index);
    erase_at(pos);
    return fn;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Due time of the next task. Precondition: !empty().
  [[nodiscard]] TimePoint next_when() const { return heap_.front().when; }

  /// Removes the next task, storing its due time in `when`.
  /// Precondition: !empty().
  Task pop(TimePoint& when) {
    when = heap_.front().when;
    Task fn = release(heap_.front().slot);
    erase_at(0);
    return fn;
  }

 private:
  static constexpr std::size_t kFree = SIZE_MAX;

  struct Slot {
    Task task;
    std::size_t heap_pos = kFree;  // index into heap_, kFree when unused
    std::uint32_t generation = 1;
  };
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  /// Frees slot `index` (its id goes stale) and moves its task out.
  Task release(std::uint32_t index) {
    Slot& s = slots_[index];
    Task fn = std::move(s.task);
    s.task = nullptr;
    s.heap_pos = kFree;
    if (++s.generation == 0) s.generation = 1;
    free_.push_back(index);
    return fn;
  }

  /// Removes heap_[pos], refilling the hole with the last entry.
  void erase_at(std::size_t pos) {
    std::size_t last = heap_.size() - 1;
    if (pos != last) {
      place(pos, heap_[last]);
      heap_.pop_back();
      if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 2])) {
        sift_up(pos);
      } else {
        sift_down(pos);
      }
    } else {
      heap_.pop_back();
    }
  }

  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = pos;
  }

  void sift_up(std::size_t pos) {
    Entry e = heap_[pos];
    while (pos > 0) {
      std::size_t parent = (pos - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  void sift_down(std::size_t pos) {
    Entry e = heap_[pos];
    std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, e);
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace amuse
