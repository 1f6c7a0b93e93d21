// StandbyCore: the warm-standby half of the HA core pair (DESIGN.md §13).
//
// Joins the active cell as an ordinary member with the standby role; the
// bus recognises the role and streams its replication log (membership,
// subscriptions, counters, spool) over the control class instead of
// treating it as a subscriber. The standby holds a ReplMirror and a lease:
// every repl message — incremental, snapshot, or bare lease renewal —
// pushes the deadline out. When the deadline passes with the mirror in
// sync, the active core is presumed dead — but with more than one standby
// the first to notice must not simply promote (two would split the cell).
// Instead it runs the quorum arbitration of DESIGN.md §13.5: broadcast a
// kPromotionClaim (claimed epoch, synced repl version, round nonce) to every
// peer on the replicated standby roster and promote only once a majority of
// the roster — its own implicit vote included — has granted a
// kPromotionVote. A voter refuses while its own lease is still fresh (a
// standby whose repl link broke cannot usurp a healthy cell) and endorses
// only claimants that beat its own position (higher version, ties to the
// smaller ServiceId), so the best-synced standby always wins. Losers stand
// down, keep their mirror, and re-home to the winner's higher-epoch beacon,
// where re-admission streams them a fresh snapshot — the cell re-arms
// to N-1 standbys without operator action (standby chains).
//
// The promoted core builds a full SelfManagedCell from the replica at
// epoch + 1 on its own pre-provisioned endpoints and starts beaconing.
// Members re-home via discovery (the higher epoch fences the dead
// incarnation) and the promoted bus re-delivers its spool, deduped
// member-side on the events' origin stamps.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "bus/bus_client.hpp"
#include "bus/replication.hpp"
#include "common/annotations.hpp"
#include "common/rng.hpp"
#include "discovery/discovery_agent.hpp"
#include "smc/cell.hpp"
#include "wire/promotion.hpp"

namespace amuse {

struct StandbyCoreConfig {
  /// Cell name, pre-shared key, timeouts. The role is forced to
  /// kStandbyRole and the receive handler is owned by the StandbyCore.
  DiscoveryAgentConfig agent;
  ReliableChannelConfig channel;
  /// Quorum arbitration (DESIGN.md §13.5). With `require_quorum` false the
  /// pre-quorum behaviour is restored — first synced standby to notice the
  /// lapse promotes unilaterally. Exists only so the sensitivity test can
  /// prove the oracle catches the double-promotion it allows.
  bool require_quorum = true;
  /// Template for the promoted cell (bus limits, quench, authorisation,
  /// ...). name, pre_shared_key, bus.ha/epoch/restore are overridden at
  /// promotion time from the replica.
  SmcCellConfig cell;
};

class StandbyCore {
 public:
  /// Fired after the promoted cell is constructed but BEFORE it starts,
  /// so observers (tests, torture oracles) attach before the first member
  /// re-homes.
  using PromotedFn = std::function<void(SelfManagedCell&)>;

  /// `endpoint` speaks to the active cell (discovery + repl stream); the
  /// promoted endpoints lie dormant until promotion creates the new core
  /// on them.
  StandbyCore(Executor& executor, std::shared_ptr<Transport> endpoint,
              std::shared_ptr<Transport> promoted_bus_endpoint,
              std::shared_ptr<Transport> promoted_discovery_endpoint,
              StandbyCoreConfig config);
  ~StandbyCore();

  StandbyCore(const StandbyCore&) = delete;
  StandbyCore& operator=(const StandbyCore&) = delete;

  /// Begins searching for the active cell.
  AMUSE_AFFINITY(core_executor) void start();
  /// Stops the lease; an already promoted cell keeps running.
  AMUSE_AFFINITY(core_executor) void stop();

  void set_on_promoted(PromotedFn fn) { on_promoted_ = std::move(fn); }

  [[nodiscard]] bool promoted() const { return cell_ != nullptr; }
  /// The promoted cell (null until promotion).
  [[nodiscard]] SelfManagedCell* cell() { return cell_.get(); }
  [[nodiscard]] bool synced() const { return mirror_.synced(); }
  [[nodiscard]] const ReplMirror& mirror() const { return mirror_; }
  [[nodiscard]] DiscoveryAgent& agent() { return *agent_; }
  [[nodiscard]] ServiceId id() const { return endpoint_->local_id(); }

  struct Stats {
    Counter updates_applied;
    Counter resyncs;                       // resync requests sent
    Counter resyncs_suppressed;            // throttled resync requests
    Counter stale_epoch_ignored;           // deposed-core stream dropped
    Counter promotions;
    Counter lease_expiries_unsynced;            // dead core, no replica
    Counter promotion_claims;            // claim rounds started
    Counter promotion_votes;             // grants issued to peers
    Counter claims_lost;                 // rounds abandoned to a rival
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  AMUSE_AFFINITY(core_executor)
  void on_joined(ServiceId bus, std::uint32_t session);
  AMUSE_AFFINITY(core_executor) void on_left();
  AMUSE_AFFINITY(core_executor) void on_repl(const ReplUpdate& update);
  AMUSE_AFFINITY(core_executor) void check_lease();
  AMUSE_AFFINITY(core_executor) void on_claim(ServiceId src,
                                              const PromotionClaim& claim);
  AMUSE_AFFINITY(core_executor) void on_vote(ServiceId src,
                                             const PromotionVote& vote);
  AMUSE_AFFINITY(core_executor) void broadcast_claim();
  AMUSE_AFFINITY(core_executor) void promote(std::uint64_t epoch);
  void arm_lease_check();
  void reset_arbitration();
  /// Roster peers (replicated standby set minus self).
  [[nodiscard]] std::vector<ServiceId> peers() const;
  /// Votes needed to promote: majority of the roster, self included.
  [[nodiscard]] std::size_t quorum() const;

  Executor& executor_;
  std::shared_ptr<Transport> endpoint_;
  std::shared_ptr<Transport> promoted_bus_endpoint_;
  std::shared_ptr<Transport> promoted_discovery_endpoint_;
  StandbyCoreConfig config_;
  std::unique_ptr<DiscoveryAgent> agent_;
  std::unique_ptr<BusClient> client_;
  ReplMirror mirror_;
  ResyncThrottle resync_throttle_;
  std::unique_ptr<SelfManagedCell> cell_;
  PromotedFn on_promoted_;
  TimePoint lease_deadline_{};
  Timer lease_timer_;
  bool running_ = false;
  Rng jitter_;  ///< seeded from the ServiceId: deterministic, per-standby
  // Claimant state: nonzero claim_epoch_ marks an open round.
  std::uint64_t claim_epoch_ = 0;
  std::uint64_t claim_nonce_ = 0;
  std::uint64_t claim_rounds_ = 0;
  std::set<std::uint64_t> votes_granted_;
  TimePoint yield_until_{};  ///< standing down to a better rival until then
  // Voter state: at most one sticky grant per epoch.
  std::uint64_t voted_epoch_ = 0;
  std::uint64_t voted_for_ = 0;
  TimePoint vote_expires_{};
  Stats stats_;
};

}  // namespace amuse
