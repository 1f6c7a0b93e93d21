// The one counter type: every component `Stats` struct holds only Counters
// (check_invariants.py, invariant I13; DESIGN.md §10).
//
// A Counter has one writer thread and may be read from any thread. `++`,
// `+=` and `raise_to` are a relaxed load plus a relaxed store, which on the
// single-writer paths compiles to the plain add a bare uint64_t gets, with
// no lock prefix. `add_shared` is a relaxed fetch_add for the one place
// several threads write (UdpTransport's send side, callable from any
// thread). Counters are totals with no ordering between them: relations
// between two counters hold once traffic quiesces, and no read is torn.
// Copying is a relaxed load and assigning a uint64_t a store, so a struct
// of Counters is a copyable value whose copy is the snapshot.
#pragma once

#include <atomic>
#include <cstdint>

namespace amuse {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : v_(other.value()) {}
  Counter& operator=(const Counter& other) { return *this = other.value(); }
  Counter& operator=(std::uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const { return value(); }  // NOLINT

  Counter& operator+=(std::uint64_t n) { return *this = value() + n; }
  Counter& operator++() { return *this += 1; }
  /// High-water mark: rises to `v`, never falls.
  void raise_to(std::uint64_t v) {
    if (v > value()) *this = v;
  }
  void add_shared(std::uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

}  // namespace amuse
