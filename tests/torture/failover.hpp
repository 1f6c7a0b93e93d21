// HA failover torture: seeded fault schedules against an active core plus
// `standbys` warm standbys (DESIGN.md §13), checked by the DeliveryOracle's
// failover rules F1–F5 on top of the base guarantees (a)–(e).
//
// Every schedule contains one PRIMARY core incident — a core crash (host
// down, paired with a later revival of the fenced old incarnation) or a
// split brain (core ⟷ standbys links cut while everyone stays up, paired
// with a heal) — embedded in the usual storm of member crashes, leaves,
// link faults, MTU squeezes, slow-consumer stalls and publish bursts. The
// standbys' leases expire, the quorum arbitration of §13.5 elects exactly
// one winner to promote at epoch + 1, the losers re-home and re-mirror
// (standby chains), members re-home on the fenced beacon, and the promoted
// core re-delivers its replicated spool; the oracle then demands
// exactly-once and per-sender FIFO across the promotion, and that every
// missing delivery is covered by a shed record, a staleness-budget record,
// or the repl-lag window of the crash itself.
//
// Two compositions are layered on top:
//   * overload — every schedule straddles the core incident with a
//     slow-consumer stall and publish bursts, so §9 budget shedding and
//     §13 spool eviction run WHILE the promotion does (the ledgers must
//     compose: each missing delivery has exactly one excuse);
//   * standby chains — a seed-chosen fraction of crash schedules fires a
//     SECOND incident (kChainCrash) at the promoted winner after the cell
//     has re-armed, forcing a survivor to promote again at epoch + 2. A
//     run whose schedule carries a chain crash must see two promotions.
//
// Subscription churn is deliberately excluded: the failover rules reason
// about a member's durable subscriptions surviving the re-home, and the
// base torture already covers churn against a single core.
//
// Sensitivity-proof switches (ctest: the revert tests in torture_test.cpp):
//   * `fence_epochs` false — members never re-home after a promotion, so
//     the barrage can't satisfy the oracle (or quiescence);
//   * `require_quorum` false — the first standby to notice the lapse
//     promotes unilaterally, two standbys both promote at the same epoch,
//     and the harness reports "double-promotion".
#pragma once

#include "torture/driver.hpp"

namespace amuse::torture {

struct FailoverConfig {
  BusEngine engine = BusEngine::kCBased;
  /// Cores and members quench on the cell's filter table (DESIGN.md §11).
  bool quench = false;
  int members = 4;
  int standbys = 2;                // warm standbys racing for promotion
  int incidents = 8;               // member-level incidents (core incidents
                                   // and the overload cluster ride on top)
  Duration horizon = seconds(20);  // fault-phase length
  Duration quiesce_cap = seconds(120);
  /// Members' beacon epoch fencing (DiscoveryAgentConfig::fence_epochs).
  /// Reverted (false) only by the oracle-sensitivity proof.
  bool fence_epochs = true;
  /// Standby quorum arbitration (StandbyCoreConfig::require_quorum).
  /// Reverted (false) only by the double-promotion sensitivity proof.
  bool require_quorum = true;
};

/// Expands a seed into a failover schedule: one core incident (crash or
/// split brain, seed-chosen) mid-horizon, an overload cluster straddling
/// it, an optional chain crash of the promoted winner, plus `incidents`
/// member faults.
[[nodiscard]] Schedule generate_failover_schedule(std::uint64_t seed,
                                                  const FailoverConfig& config);

/// Replays a schedule against a fresh active+standby SMC pair and runs the
/// oracle with the HA rules enabled. Deterministic in (schedule, config).
[[nodiscard]] TortureResult run_failover_torture(const Schedule& schedule,
                                                 const FailoverConfig& config);

}  // namespace amuse::torture
