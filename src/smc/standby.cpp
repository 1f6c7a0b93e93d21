#include "smc/standby.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "wire/packet.hpp"

namespace amuse {
namespace {
const Logger kLog("smc.standby");

/// No repl traffic for this long → the active core is presumed dead. Must
/// comfortably exceed the bus's lease interval (so one lost datagram is not
/// a failover) and stay below the members' cell_lost_after (so the
/// promoted core beacons before members give up searching).
constexpr Duration kLeaseTimeout = milliseconds(1500);
static_assert(kLeaseTimeout >= 3 * kReplLeaseInterval);
/// Cadence of the lease expiry check. The actual period is jittered ±25%
/// (seeded per-standby) so rival claims do not collide tick-for-tick.
constexpr Duration kLeaseCheckInterval = milliseconds(200);
/// A granted vote is sticky for this long: the voter refuses rival
/// claimants at the same epoch until the grantee has had time to promote.
constexpr Duration kVoteTtl = seconds(2);
/// After standing down to a better rival, wait this long for its beacons
/// before re-claiming (covers the rival dying mid-promotion).
constexpr Duration kYieldTimeout = seconds(2);
/// Minimum spacing between full-resync requests (ResyncThrottle): a lossy
/// repl link must not turn every gap into a snapshot storm.
constexpr Duration kResyncMinInterval = milliseconds(600);
}  // namespace

StandbyCore::StandbyCore(Executor& executor,
                         std::shared_ptr<Transport> endpoint,
                         std::shared_ptr<Transport> promoted_bus_endpoint,
                         std::shared_ptr<Transport> promoted_discovery_endpoint,
                         StandbyCoreConfig config)
    : executor_(executor),
      endpoint_(std::move(endpoint)),
      promoted_bus_endpoint_(std::move(promoted_bus_endpoint)),
      promoted_discovery_endpoint_(std::move(promoted_discovery_endpoint)),
      config_(std::move(config)),
      resync_throttle_(kResyncMinInterval),
      lease_timer_(executor, [this] { check_lease(); }),
      jitter_(endpoint_->local_id().raw(), 0x57A4DB) {
  DiscoveryAgentConfig ac = config_.agent;
  ac.role = std::string(kStandbyRole);
  agent_ = std::make_unique<DiscoveryAgent>(executor_, endpoint_, ac);
  agent_->set_on_joined([this](ServiceId bus, std::uint32_t session) {
    on_joined(bus, session);
  });
  agent_->set_on_left([this] { on_left(); });

  endpoint_->set_receive_handler([this](ServiceId src, BytesView data) {
    // Same mux as SmcMember — reliable-channel frames to the bus client,
    // arbitration frames to the claim/vote handlers, discovery to the
    // agent.
    std::optional<Packet> p = Packet::decode(data);
    if (!p) return;
    if (p->type == PacketType::kData || p->type == PacketType::kAck) {
      if (client_) client_->handle_packet(src, *p);
    } else if (p->type == PacketType::kPromotionClaim) {
      if (auto claim = PromotionClaim::decode(p->payload)) {
        on_claim(p->src, *claim);
      }
    } else if (p->type == PacketType::kPromotionVote) {
      if (auto vote = PromotionVote::decode(p->payload)) {
        on_vote(p->src, *vote);
      }
    } else {
      agent_->handle_packet(src, *p);
    }
  });
}

StandbyCore::~StandbyCore() {
  endpoint_->set_receive_handler(nullptr);
}

void StandbyCore::start() {
  if (running_) return;
  running_ = true;
  agent_->start();
}

void StandbyCore::stop() {
  running_ = false;
  lease_timer_.cancel();
}

void StandbyCore::on_joined(ServiceId bus, std::uint32_t session) {
  BusClientConfig cc;
  cc.channel = config_.channel;
  cc.channel.min_peer_session = agent_->bus_channel_session();
  cc.session = session;
  cc.install_receive_handler = false;
  client_ = std::make_unique<BusClient>(executor_, endpoint_, bus, cc);
  client_->set_on_repl([this](const ReplUpdate& u) { on_repl(u); });
  // A fresh core owns us now (first admission, or a re-home to a promoted
  // winner after losing arbitration): any open claim round or stale vote
  // belongs to the previous incarnation.
  reset_arbitration();
  yield_until_ = {};
  voted_epoch_ = 0;
  voted_for_ = 0;
  // The admission snapshot is on its way; give the core a full lease to
  // deliver it.
  lease_deadline_ = executor_.now() + kLeaseTimeout;
  arm_lease_check();
  kLog.info(id().to_string(), " standing by for cell via bus ",
            bus.to_string());
}

void StandbyCore::on_left() {
  // Keep the lease running: silence from a dead core is exactly what the
  // deadline measures. (If a live core purged us, its beacons are still
  // flowing and the agent re-joins before the lease runs out.)
  client_.reset();
}

void StandbyCore::on_repl(const ReplUpdate& update) {
  switch (mirror_.apply(update)) {
    case ReplMirror::Apply::kApplied:
      ++stats_.updates_applied;
      lease_deadline_ = executor_.now() + kLeaseTimeout;
      break;
    case ReplMirror::Apply::kResyncNeeded:
      // The core is alive — it just got ahead of us. Renew the lease and
      // ask for a snapshot; never promote from a suspect replica. The
      // throttle keeps a lossy link from turning every gap into a snapshot
      // storm: at most one request per resync_min_interval, the rest wait
      // for the next update (the core's lease stream guarantees one).
      lease_deadline_ = executor_.now() + kLeaseTimeout;
      if (resync_throttle_.allow(executor_.now())) {
        ++stats_.resyncs;
        if (client_) client_->request_resync(BusMsgType::kReplUpdate);
      } else {
        ++stats_.resyncs_suppressed;
      }
      break;
    case ReplMirror::Apply::kStaleEpoch:
      // A deposed core still streaming after a split brain: neither
      // liveness evidence nor state.
      ++stats_.stale_epoch_ignored;
      break;
  }
}

void StandbyCore::arm_lease_check() {
  // ±25% jitter, seeded per-standby: rival claim rounds must not stay
  // phase-locked tick-for-tick.
  std::int64_t base = kLeaseCheckInterval.count();
  std::uint32_t spread = static_cast<std::uint32_t>(
      std::min<std::int64_t>(std::max<std::int64_t>(base / 2, 1), UINT32_MAX));
  std::int64_t jittered =
      base * 3 / 4 + static_cast<std::int64_t>(jitter_.bounded(spread));
  lease_timer_.arm_after(Duration(jittered));
}

std::vector<ServiceId> StandbyCore::peers() const {
  std::vector<ServiceId> out;
  for (std::uint64_t raw : mirror_.state().standbys) {
    if (raw != id().raw()) out.push_back(ServiceId(raw));
  }
  return out;
}

std::size_t StandbyCore::quorum() const {
  const auto& roster = mirror_.state().standbys;
  std::size_t total = roster.size();
  if (roster.count(id().raw()) == 0) ++total;  // self always counts
  return total / 2 + 1;
}

void StandbyCore::reset_arbitration() {
  claim_epoch_ = 0;
  claim_nonce_ = 0;
  votes_granted_.clear();
}

void StandbyCore::check_lease() {
  if (!running_ || promoted()) return;
  TimePoint now = executor_.now();
  if (now < lease_deadline_) {
    // Repl traffic resumed: the core is alive, stand down any open round.
    reset_arbitration();
    arm_lease_check();
    return;
  }
  if (!mirror_.synced()) {
    // Dead core but no replica to promote from: nothing safe to do except
    // keep waiting (and count it — this is a deployment error, the lease
    // outran the first snapshot).
    ++stats_.lease_expiries_unsynced;
    lease_deadline_ = now + kLeaseTimeout;
    arm_lease_check();
    return;
  }
  if (!config_.require_quorum) {
    // Pre-quorum behaviour (sensitivity testing only): first synced
    // standby to notice the lapse promotes unilaterally.
    promote(mirror_.epoch() + 1);
    return;
  }
  if (now < yield_until_) {
    // A better rival is mid-promotion; give its beacons time to arrive.
    arm_lease_check();
    return;
  }
  std::vector<ServiceId> ps = peers();
  if (ps.empty()) {
    // Solo standby: majority of one is the implicit self-vote.
    promote(mirror_.epoch() + 1);
    return;
  }
  if (claim_epoch_ == 0) {
    claim_epoch_ = mirror_.epoch() + 1;
    claim_nonce_ = ++claim_rounds_;
    votes_granted_.clear();
    ++stats_.promotion_claims;
    kLog.info(id().to_string(), " claiming promotion at epoch ",
              std::to_string(claim_epoch_));
  }
  broadcast_claim();  // claims are unreliable; re-offer every tick
  arm_lease_check();
}

void StandbyCore::broadcast_claim() {
  PromotionClaim claim;
  claim.cell = config_.agent.cell_name;
  claim.epoch = claim_epoch_;
  claim.version = mirror_.version();
  claim.nonce = claim_nonce_;
  for (ServiceId peer : peers()) {
    endpoint_->send(peer, claim.to_packet(id(), peer).encode());
  }
}

void StandbyCore::on_claim(ServiceId src, const PromotionClaim& claim) {
  if (!running_ || promoted()) return;
  if (claim.cell != config_.agent.cell_name) return;
  if (src.raw() == id().raw()) return;
  TimePoint now = executor_.now();

  PromotionVote vote;
  vote.cell = claim.cell;
  vote.epoch = claim.epoch;
  vote.nonce = claim.nonce;
  vote.voter_version = mirror_.version();
  vote.granted = false;

  // Refuse while our own lease is fresh: we can still hear the core, so
  // the claimant's silence is its own link, not a dead cell.
  bool lease_expired = now >= lease_deadline_;
  // Refuse claims for epochs our mirror has already caught up past.
  bool epoch_advances = claim.epoch > mirror_.epoch();
  // Endorse only claimants that beat our own position — if they do not,
  // we are the better candidate and our own claim settles it.
  bool rival_better =
      promotion_beats(claim.version, src, mirror_.version(), id());
  // Sticky grant: one claimant per epoch until the vote expires, so two
  // rounds cannot both count us towards a majority.
  bool sticky_elsewhere = voted_epoch_ == claim.epoch &&
                          voted_for_ != src.raw() && now < vote_expires_;

  if (lease_expired && epoch_advances && rival_better && !sticky_elsewhere) {
    vote.granted = true;
    voted_epoch_ = claim.epoch;
    voted_for_ = src.raw();
    vote_expires_ = now + kVoteTtl;
    ++stats_.promotion_votes;
    if (claim_epoch_ != 0) {
      // Our own round loses to the rival: stand down and wait for its
      // beacons (re-claim after yield_timeout if it dies mid-promotion).
      ++stats_.claims_lost;
      reset_arbitration();
      yield_until_ = now + kYieldTimeout;
      kLog.info(id().to_string(), " yielding promotion to ",
                src.to_string());
    }
  }
  endpoint_->send(src, vote.to_packet(id(), src).encode());
}

void StandbyCore::on_vote(ServiceId src, const PromotionVote& vote) {
  if (!running_ || promoted() || claim_epoch_ == 0) return;
  if (vote.cell != config_.agent.cell_name) return;
  if (vote.epoch != claim_epoch_ || vote.nonce != claim_nonce_) return;
  if (!vote.granted) return;
  votes_granted_.insert(src.raw());
  if (1 + votes_granted_.size() >= quorum()) {
    kLog.info(id().to_string(), " promotion quorum reached (",
              std::to_string(1 + votes_granted_.size()), " of ",
              std::to_string(quorum()), " needed)");
    promote(claim_epoch_);
  }
}

void StandbyCore::promote(std::uint64_t epoch) {
  ++stats_.promotions;
  reset_arbitration();
  ReplState replica = mirror_.take_state();
  epoch = std::max(epoch, replica.epoch + 1);
  kLog.info(id().to_string(), " promoting to active core at epoch ",
            std::to_string(epoch));
  // Quietly stop following the dead cell; the promoted core owns the name
  // now and the agent must not re-join a revived predecessor.
  agent_->leave();
  SmcCellConfig cc = config_.cell;
  cc.name = config_.agent.cell_name;
  cc.pre_shared_key = config_.agent.pre_shared_key;
  cc.bus.ha = true;
  cc.bus.epoch = epoch;
  cc.bus.restore = std::make_shared<const ReplState>(std::move(replica));
  cell_ = std::make_unique<SelfManagedCell>(
      executor_, promoted_bus_endpoint_, promoted_discovery_endpoint_, cc);
  if (on_promoted_) on_promoted_(*cell_);
  cell_->start();
}

}  // namespace amuse
