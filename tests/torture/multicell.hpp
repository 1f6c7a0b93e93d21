// Multi-cell torture: seeded fault schedules against a federated overlay
// of complete SMCs — line, tree and cycle topologies wired by dual-homed
// FederationGateway members — with a cross-cell delivery oracle.
//
// Invariants checked (the single-cell DeliveryOracle guarantees, extended
// end-to-end across cells):
//
//   (a) no duplicate cross-cell delivery — one (sender, n) publish reaches
//       each member at most once, ever, no matter how many gateway paths
//       exist (origin-stamp dedup, DESIGN.md §11);
//   (b) per-sender FIFO end-to-end — at every receiver incarnation, the
//       per-sender publish counter is strictly increasing. Multipath
//       first-arrival-wins preserves this as long as no path silently
//       drops, so the cycle schedule keeps publish bursts clear of gateway
//       blackout windows and the budgets stay untightened (path loss only
//       delays a reliable channel, it never reorders it);
//   (c) no silent loss between live members — checked via the post-heal
//       barrage: once every member and gateway has re-joined and the
//       overlay has quiesced, every member's publishes must reach every
//       member in every cell;
//   (d) origin-stamp discipline — every event delivered across a cell
//       boundary carries the immutable Origin{cell, epoch, seq} of its true
//       origin, and an event stamped with the receiver's own cell can never
//       be delivered there (a federated loop would have to come home
//       unstamped or restamped — there is no hop attribute to forge).
//
// Everything derives from the uint64 seed (invariant I7): no wall clock,
// no unseeded randomness, so a failing (topology, engine, schedule) tuple
// replays bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bus/event_bus.hpp"
#include "sim/time.hpp"

namespace amuse::torture {

enum class McTopology : std::uint8_t {
  kLine,   // 4 cells: 0–1–2–3
  kTree,   // 4 cells: 0–1, 0–2, 1–3
  kCycle,  // 3 cells: 0–1–2–0 (every pair has two disjoint paths)
};

[[nodiscard]] const char* to_string(McTopology t);

enum class McOp : std::uint8_t {
  kBurst,          // ordinary member publishes a events
  kGwCrash,        // gateway host down (both dual-homed members die)
  kGwRecover,      // gateway host back up (members re-join, table resyncs)
  kMemberCrash,    // ordinary member's host down
  kMemberRecover,  // ordinary member's host back up
  kLinkFault,      // loss (a %) on the gateway host ⟷ both cores
  kLinkHeal,       // gateway links back to the base model
};

[[nodiscard]] const char* to_string(McOp op);

struct McStep {
  Duration at{};
  McOp op{};
  int target = 0;  // member index for bursts/member ops, link index otherwise
  int a = 0;       // burst size or loss %

  [[nodiscard]] std::string to_string() const;
};

struct McSchedule {
  std::uint64_t seed = 0;
  std::vector<McStep> steps;
};

struct McConfig {
  BusEngine engine = BusEngine::kCBased;
  McTopology topology = McTopology::kLine;
  int members_per_cell = 2;
  int incidents = 10;
  Duration horizon = seconds(24);
  Duration quiesce_cap = seconds(120);
};

struct McResult {
  bool ok = false;
  std::string invariant;
  std::string violation;
  std::vector<std::string> log;
  std::uint64_t publishes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t cross_cell = 0;       // deliveries whose sender cell differs
  std::uint64_t fed_dups_dropped = 0;  // summed over every cell bus
  std::uint64_t fed_suppressed = 0;    // events no downstream interest wanted
};

/// Expands a seed into a timed schedule. Every fault is paired with a heal
/// inside the horizon; on the cycle topology, bursts are kept clear of
/// gateway blackout windows (see invariant (b) above).
[[nodiscard]] McSchedule generate_multicell_schedule(std::uint64_t seed,
                                                     const McConfig& config);

/// Replays a schedule against a fresh federated overlay and runs the
/// cross-cell oracle. Deterministic in (schedule, config).
[[nodiscard]] McResult run_multicell(const McSchedule& schedule,
                                     const McConfig& config);

[[nodiscard]] std::string format_multicell_trace(const McSchedule& schedule,
                                                 const McConfig& config,
                                                 const McResult& result);

}  // namespace amuse::torture
