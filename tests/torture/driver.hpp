// TortureDriver: seeded, randomized protocol torture on the deterministic
// simulation. One uint64 seed expands into a Schedule — timed member
// crashes/recoveries, graceful leaves/restarts, link loss/bursts, MTU
// squeezes, network partitions, subscription churn and publish bursts —
// which run_torture() replays against a full SMC (cell + N members) while a
// DeliveryOracle checks the paper's delivery guarantees after quiescence.
//
// Everything is derived from the seed and the schedule's own step fields:
// no wall clock, no unseeded randomness, so a failing (engine, schedule)
// pair replays bit-identically — the property the shrinker relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bus/event_bus.hpp"
#include "sim/time.hpp"

namespace amuse::torture {

enum class TortureOp : std::uint8_t {
  kCrash,          // host down (heartbeats stop; may straddle the purge)
  kRecover,        // host back up (agent re-joins if purged)
  kLeave,          // graceful LEAVE → immediate purge
  kRestart,        // agent starts searching again after a leave
  kLinkFault,      // member⟷core link: loss (a%) or bursty loss (b != 0)
  kMtuSqueeze,     // member⟷core link: MTU clamped to a bytes
  kLinkHeal,       // member⟷core link back to the base model
  kStall,          // core→member direction blackholed (slow consumer: the
                   // member's heartbeats keep it alive while its proxy
                   // queue grows against the delivery budgets)
  kPartition,      // split hosts into two groups (core in group 1)
  kHealPartition,  // everyone back into one group
  kBurst,          // member publishes a events
  kSubAdd,         // member adds an ephemeral subscription (v >= a)
  kSubDrop,        // member drops its oldest ephemeral subscription
  // HA ops (generated only by the failover harness, tests/torture/
  // failover.hpp — the single-core schedule above never emits them):
  kCoreCrash,      // active core host down; the standby's lease expires
  kCoreRevive,     // old core host back up (fenced: it must step down)
  kSplitBrain,     // core ⟷ standby link cut while both stay up; the
                   // standby promotes with the old core still serving.
                   // Healed by kHealPartition, which here restores the
                   // core ⟷ standby link (the old core then hears the
                   // rival epoch and deposes itself)
  kChainCrash,     // crash the host of the CURRENTLY ACTIVE core — the
                   // promoted winner's host once a promotion happened —
                   // so a surviving standby (re-armed by the chain) must
                   // promote a second time (DESIGN.md §13.5 standby
                   // chains)
  kChainRevive,    // revive whichever host kChainCrash took down
};

[[nodiscard]] const char* to_string(TortureOp op);

struct TortureStep {
  Duration at{};      // offset from schedule start
  TortureOp op{};
  int member = -1;    // target member index; -1 = whole network
  int a = 0;          // op parameter (burst size, loss %, MTU, threshold)
  int b = 0;          // op parameter (bursty flag, partition mask)

  [[nodiscard]] std::string to_string() const;
};

struct Schedule {
  std::uint64_t seed = 0;
  std::vector<TortureStep> steps;
};

struct TortureConfig {
  BusEngine engine = BusEngine::kCBased;
  /// Bus and members quench on the cell's filter table (DESIGN.md §11).
  bool quench = false;
  int members = 4;
  int incidents = 12;              // fault/burst incidents to generate
  Duration horizon = seconds(20);  // fault-phase length
  Duration quiesce_cap = seconds(120);
};

struct TortureResult {
  bool ok = false;
  std::string invariant;           // empty when ok
  std::string violation;           // human-readable detail
  std::vector<std::string> log;    // applied steps + phase markers
  std::uint64_t publishes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t sheds = 0;  // accounted overload drops (observer shed tap)
};

/// Expands a seed into a timed schedule. Every fault is paired with a heal
/// within the horizon so quiescence is always reachable.
[[nodiscard]] Schedule generate_schedule(std::uint64_t seed,
                                         const TortureConfig& config);

/// Replays a schedule against a fresh SMC under `config.engine` and runs
/// the oracle. Deterministic in (schedule, config).
[[nodiscard]] TortureResult run_torture(const Schedule& schedule,
                                        const TortureConfig& config);

/// Serialises a failing run for the trace file.
[[nodiscard]] std::string format_trace(const Schedule& schedule,
                                       const TortureConfig& config,
                                       const TortureResult& result);

}  // namespace amuse::torture
