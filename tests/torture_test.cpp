// Protocol-torture smoke test (ctest label "torture"): random fault
// schedules replayed against both matching engines, checked by the
// DeliveryOracle. On a violation the harness shrinks the schedule to a
// minimal failing sub-schedule, dumps a replayable trace and prints the
// one-line reproduction command.
//
// Environment:
//   TORTURE_SEED=<n>   replay exactly one seed (both engines);
//   TORTURE_SEEDS=<k>  run k consecutive seeds (default 20; fewer under
//                      sanitizers);
//   TORTURE_TRACE_DIR  where failing traces are written (default: cwd).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "torture/driver.hpp"
#include "torture/failover.hpp"
#include "torture/multicell.hpp"
#include "torture/shrink.hpp"

namespace amuse {
namespace {

using torture::Schedule;
using torture::TortureConfig;
using torture::TortureResult;

constexpr std::uint64_t kBaseSeed = 0x702e5eed;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kDefaultSeeds = 8;
#else
constexpr int kDefaultSeeds = 20;
#endif

std::string dump_trace(const Schedule& schedule, const TortureConfig& config,
                       const TortureResult& result) {
  const char* dir = std::getenv("TORTURE_TRACE_DIR");
  std::string path = std::string(dir != nullptr ? dir : ".") +
                     "/torture_trace_seed" + std::to_string(schedule.seed) +
                     "_" + to_string(config.engine) + ".txt";
  std::ofstream out(path);
  out << torture::format_trace(schedule, config, result);
  return path;
}

void run_seed(std::uint64_t seed, const TortureConfig& config) {
  const BusEngine engine = config.engine;
  Schedule schedule = torture::generate_schedule(seed, config);
  TortureResult result = torture::run_torture(schedule, config);
  if (std::getenv("TORTURE_VERBOSE") != nullptr) {
    std::fprintf(stderr,
                 "[torture] seed %llu engine %s: steps=%zu publishes=%llu "
                 "deliveries=%llu %s\n",
                 static_cast<unsigned long long>(seed), to_string(engine),
                 schedule.steps.size(),
                 static_cast<unsigned long long>(result.publishes),
                 static_cast<unsigned long long>(result.deliveries),
                 result.ok ? "ok" : result.invariant.c_str());
  }
  if (result.ok) {
    EXPECT_GT(result.publishes, 0u) << "schedule published nothing; the "
                                       "generator lost its publish weight";
    return;
  }

  torture::ShrinkResult small = torture::shrink(schedule, config);
  std::string trace = dump_trace(small.schedule, config, small.result);
  FAIL() << "delivery-guarantee violation [" << result.invariant << "] "
         << result.violation << "\n  seed " << seed << ", engine "
         << to_string(engine) << "\n  shrunk to "
         << small.schedule.steps.size() << " steps (from "
         << schedule.steps.size() << ", " << small.runs
         << " shrink runs): [" << small.result.invariant << "] "
         << small.result.violation << "\n  trace written to " << trace
         << "\n  reproduce with: TORTURE_SEED=" << seed
         << " ctest -R torture.smoke --output-on-failure";
}

std::vector<std::uint64_t> smoke_seeds() {
  std::vector<std::uint64_t> seeds;
  if (const char* one = std::getenv("TORTURE_SEED")) {
    seeds.push_back(std::strtoull(one, nullptr, 0));
  } else {
    int count = kDefaultSeeds;
    if (const char* many = std::getenv("TORTURE_SEEDS")) {
      count = std::max(1, std::atoi(many));
    }
    for (int i = 0; i < count; ++i) {
      seeds.push_back(kBaseSeed + static_cast<std::uint64_t>(i));
    }
  }
  return seeds;
}

TEST(Torture, Smoke) {
  for (std::uint64_t seed : smoke_seeds()) {
    for (BusEngine engine : {BusEngine::kCBased, BusEngine::kSienaBased}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " engine " +
                   std::string(to_string(engine)));
      TortureConfig config;
      config.engine = engine;
      run_seed(seed, config);
      if (HasFatalFailure()) return;  // trace dumped; stop at first failure
    }
  }
}

// The same schedules with quenching on: every member mirrors the cell's
// filter table through crashes, purges, re-joins and lossy links (admission
// confirms, resyncs, diffs racing purges), and every delivery guarantee the
// oracle checks must still hold. The oracle judges what the bus routed; an
// event a publisher quenched never reaches it.
TEST(Torture, SmokeWithQuench) {
  for (std::uint64_t seed : smoke_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " quench");
    TortureConfig config;
    config.quench = true;
    run_seed(seed, config);
    if (HasFatalFailure()) return;
  }
}

// Directed slow-consumer run (ctest: torture.slow_consumer, label
// "overload"): one member's inbound link is blackholed (its own heartbeats
// keep it admitted) while another floods, so the proxy queue overflows the
// tight per-member delivery budget. The run must still satisfy the oracle:
// healthy members receive every event in FIFO order, and each delivery
// missing at the stalled member is covered by a shed record — the refined
// guarantee (c), "accounted, never silent".
TEST(Torture, SlowConsumer) {
  using torture::TortureOp;
  using torture::TortureStep;
  for (BusEngine engine : {BusEngine::kCBased, BusEngine::kSienaBased}) {
    SCOPED_TRACE(std::string("engine ") + to_string(engine));
    TortureConfig config;
    config.engine = engine;
    Schedule schedule;
    schedule.seed = 0x51000;
    // Stall shorter than the agent's cell-lost timeout (2 s): member 0
    // stays joined on both sides the whole time, so guarantee (c) applies
    // to it and only shed records may excuse its missing deliveries.
    schedule.steps = {
        TortureStep{from_seconds(0.5), TortureOp::kStall, 0},
        TortureStep{from_seconds(0.7), TortureOp::kBurst, 1, 40},
        TortureStep{from_seconds(2.2), TortureOp::kLinkHeal, 0},
    };
    TortureResult result = torture::run_torture(schedule, config);
    EXPECT_TRUE(result.ok) << "[" << result.invariant << "] "
                           << result.violation;
    // 40 events × ~100 encoded bytes against a 2 KB per-member budget must
    // overflow: the machinery under test has to actually engage.
    EXPECT_GT(result.sheds, 0u)
        << "stall+burst never tripped the delivery budget";
    EXPECT_GT(result.deliveries, 0u);
  }
}

TEST(Torture, ScheduleGenerationIsDeterministic) {
  TortureConfig config;
  Schedule a = torture::generate_schedule(42, config);
  Schedule b = torture::generate_schedule(42, config);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].to_string(), b.steps[i].to_string());
  }
  Schedule c = torture::generate_schedule(43, config);
  bool identical = a.steps.size() == c.steps.size();
  if (identical) {
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      identical = identical && a.steps[i].to_string() == c.steps[i].to_string();
    }
  }
  EXPECT_FALSE(identical) << "different seeds produced identical schedules";
}

// The scriptable fault surface the driver relies on, covered directly.

TEST(SimNetworkFaults, PartitionBlocksTrafficUntilHealed) {
  SimExecutor ex;
  SimNetwork net(ex, 7);
  SimHost& a = net.add_host("a", CostModel{});
  SimHost& b = net.add_host("b", CostModel{});
  auto ea = net.create_endpoint(a);
  auto eb = net.create_endpoint(b);
  int received = 0;
  eb->set_receive_handler([&](ServiceId, BytesView) { ++received; });

  net.set_partition_group(a, 1);
  net.set_partition_group(b, 2);
  ea->send(eb->local_id(), to_bytes("x"));
  ex.run_for(seconds(1));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_partition, 1u);

  net.clear_partitions();
  ea->send(eb->local_id(), to_bytes("x"));
  ex.run_for(seconds(1));
  EXPECT_EQ(received, 1);
}

// ---- Multi-cell federation torture (ctest: torture.multicell, labels
// "torture;federation"): seeded fault schedules against line/tree/cycle
// broker overlays — gateway host crashes straddling the purge timeout,
// member churn, lossy links — checked by the cross-cell oracle in
// tests/torture/multicell.hpp. MULTICELL_TOPOLOGY=line|tree|cycle
// restricts the sweep (the CI seed matrix cranks TORTURE_SEEDS on cycle,
// the topology with genuinely disjoint multipaths).

std::string dump_multicell_trace(const torture::McSchedule& schedule,
                                 const torture::McConfig& config,
                                 const torture::McResult& result) {
  const char* dir = std::getenv("TORTURE_TRACE_DIR");
  std::string path = std::string(dir != nullptr ? dir : ".") +
                     "/multicell_trace_seed" + std::to_string(schedule.seed) +
                     "_" + torture::to_string(config.topology) + "_" +
                     to_string(config.engine) + ".txt";
  std::ofstream out(path);
  out << torture::format_multicell_trace(schedule, config, result);
  return path;
}

void run_multicell_seed(std::uint64_t seed, torture::McTopology topology,
                        BusEngine engine) {
  torture::McConfig config;
  config.engine = engine;
  config.topology = topology;
  torture::McSchedule schedule =
      torture::generate_multicell_schedule(seed, config);
  torture::McResult result = torture::run_multicell(schedule, config);
  if (std::getenv("TORTURE_VERBOSE") != nullptr) {
    std::fprintf(
        stderr,
        "[multicell] seed %llu %s/%s: steps=%zu publishes=%llu "
        "deliveries=%llu cross=%llu dups-dropped=%llu suppressed=%llu %s\n",
        static_cast<unsigned long long>(seed), torture::to_string(topology),
        to_string(engine), schedule.steps.size(),
        static_cast<unsigned long long>(result.publishes),
        static_cast<unsigned long long>(result.deliveries),
        static_cast<unsigned long long>(result.cross_cell),
        static_cast<unsigned long long>(result.fed_dups_dropped),
        static_cast<unsigned long long>(result.fed_suppressed),
        result.ok ? "ok" : result.invariant.c_str());
  }
  if (result.ok) {
    // The barrage alone crosses cells, so a run that saw zero cross-cell
    // deliveries means federation never engaged at all.
    EXPECT_GT(result.cross_cell, 0u)
        << "no event ever crossed a cell boundary";
    if (topology == torture::McTopology::kCycle) {
      // Two disjoint paths per pair: the second arrival must be getting
      // dropped somewhere, or the dedup is not actually engaging.
      EXPECT_GT(result.fed_dups_dropped, 0u)
          << "cycle run never exercised multipath dedup";
    }
    return;
  }
  std::string trace = dump_multicell_trace(schedule, config, result);
  FAIL() << "federation-guarantee violation [" << result.invariant << "] "
         << result.violation << "\n  seed " << seed << ", topology "
         << torture::to_string(topology) << ", engine " << to_string(engine)
         << "\n  trace written to " << trace
         << "\n  reproduce with: TORTURE_SEED=" << seed
         << " MULTICELL_TOPOLOGY=" << torture::to_string(topology)
         << " ctest -R torture.multicell --output-on-failure";
}

TEST(MulticellTorture, Smoke) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  int count = 3;
#else
  int count = 6;
#endif
  std::vector<std::uint64_t> seeds;
  if (const char* one = std::getenv("TORTURE_SEED")) {
    seeds.push_back(std::strtoull(one, nullptr, 0));
  } else {
    if (const char* many = std::getenv("TORTURE_SEEDS")) {
      count = std::max(1, std::atoi(many));
    }
    for (int i = 0; i < count; ++i) {
      seeds.push_back(0x3c3110 + static_cast<std::uint64_t>(i));
    }
  }
  std::vector<torture::McTopology> topologies = {torture::McTopology::kLine,
                                                 torture::McTopology::kTree,
                                                 torture::McTopology::kCycle};
  if (const char* only = std::getenv("MULTICELL_TOPOLOGY")) {
    std::string want(only);
    topologies.erase(
        std::remove_if(topologies.begin(), topologies.end(),
                       [&](torture::McTopology t) {
                         return want != torture::to_string(t);
                       }),
        topologies.end());
  }
  for (std::uint64_t seed : seeds) {
    for (torture::McTopology topology : topologies) {
      for (BusEngine engine :
           {BusEngine::kCBased, BusEngine::kSienaBased}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " topology " +
                     std::string(torture::to_string(topology)) + " engine " +
                     std::string(to_string(engine)));
        run_multicell_seed(seed, topology, engine);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Directed S6 regression: a gateway host crash that straddles both cells'
// purge timeouts, with interests changing while it is gone. The rejoined
// incarnation must route on a freshly-pushed table — bursts published well
// after recovery still have to reach every cell (the barrage check), and
// nothing may duplicate on the way back in.
TEST(MulticellTorture, GatewayCrashRejoin) {
  using torture::McOp;
  using torture::McStep;
  for (BusEngine engine : {BusEngine::kCBased, BusEngine::kSienaBased}) {
    SCOPED_TRACE(std::string("engine ") + to_string(engine));
    torture::McConfig config;
    config.engine = engine;
    config.topology = torture::McTopology::kLine;
    torture::McSchedule schedule;
    schedule.seed = 0x6c0a1;
    schedule.steps = {
        McStep{from_seconds(0.5), McOp::kBurst, 0, 3},
        // The middle link goes dark for 7 s — well past purge_after (3 s)
        // and cell_lost_after (2 s): both cells purge the gateway and the
        // gateway notices the loss, so recovery is a genuine re-join with
        // a full interest-table resync, not a heartbeat hiccup.
        McStep{from_seconds(2.0), McOp::kGwCrash, 1},
        McStep{from_seconds(3.0), McOp::kBurst, 2, 2},
        McStep{from_seconds(9.0), McOp::kGwRecover, 1},
        McStep{from_seconds(16.0), McOp::kBurst, 0, 3},
        McStep{from_seconds(17.0), McOp::kBurst, 6, 2},
    };
    torture::McResult result = torture::run_multicell(schedule, config);
    EXPECT_TRUE(result.ok) << "[" << result.invariant << "] "
                           << result.violation;
    EXPECT_GT(result.cross_cell, 0u);
  }
}

// ---- HA failover torture (ctest: torture.failover, labels
// "torture;failover"): seeded schedules with one primary core incident —
// crash+revive or split-brain+heal — against an active core plus
// TORTURE_STANDBYS warm standbys (default 2, quorum arbitration), an
// overload cluster straddling the incident, an optional chain crash of the
// promoted winner, plus the usual member fault storm, checked by the
// oracle's failover rules F1–F5 (tests/torture/oracle.hpp). The CI seed
// matrix reruns this with TORTURE_SEEDS=50 on both engines.

std::string dump_failover_trace(const Schedule& schedule,
                                const torture::FailoverConfig& config,
                                const TortureResult& result) {
  const char* dir = std::getenv("TORTURE_TRACE_DIR");
  std::string path = std::string(dir != nullptr ? dir : ".") +
                     "/failover_trace_seed" + std::to_string(schedule.seed) +
                     "_" + to_string(config.engine) + ".txt";
  // format_trace only reads the fields FailoverConfig shares with
  // TortureConfig (engine, members, horizon), so the trace file stays on
  // the one serialiser.
  TortureConfig shadow;
  shadow.engine = config.engine;
  shadow.quench = config.quench;
  shadow.members = config.members;
  shadow.horizon = config.horizon;
  std::ofstream out(path);
  out << torture::format_trace(schedule, shadow, result);
  return path;
}

void run_failover_seed(std::uint64_t seed, BusEngine engine,
                       bool quench = false) {
  if (std::getenv("TORTURE_LOG") != nullptr) {
    set_log_level(LogLevel::kDebug);  // per-event bus/discovery narration
  }
  torture::FailoverConfig config;
  config.engine = engine;
  config.quench = quench;
  if (const char* standbys = std::getenv("TORTURE_STANDBYS")) {
    config.standbys = std::max(1, std::atoi(standbys));
  }
  Schedule schedule = torture::generate_failover_schedule(seed, config);
  TortureResult result = torture::run_failover_torture(schedule, config);
  if (std::getenv("TORTURE_VERBOSE") != nullptr) {
    std::fprintf(stderr,
                 "[failover] seed %llu engine %s: steps=%zu publishes=%llu "
                 "deliveries=%llu sheds=%llu %s\n",
                 static_cast<unsigned long long>(seed), to_string(engine),
                 schedule.steps.size(),
                 static_cast<unsigned long long>(result.publishes),
                 static_cast<unsigned long long>(result.deliveries),
                 static_cast<unsigned long long>(result.sheds),
                 result.ok ? "ok" : result.invariant.c_str());
  }
  if (result.ok) {
    EXPECT_GT(result.publishes, 0u) << "schedule published nothing";
    return;
  }
  // No shrinker here: removing the core incident changes which oracle
  // rules even apply, so a shrunk schedule rarely preserves the failure.
  std::string trace = dump_failover_trace(schedule, config, result);
  FAIL() << "failover-guarantee violation [" << result.invariant << "] "
         << result.violation << "\n  seed " << seed << ", engine "
         << to_string(engine) << "\n  trace written to " << trace
         << "\n  reproduce with: TORTURE_SEED=" << seed
         << " ctest -R torture.failover --output-on-failure";
}

std::vector<std::uint64_t> failover_seeds() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  int count = 5;
#else
  int count = 10;
#endif
  std::vector<std::uint64_t> seeds;
  if (const char* one = std::getenv("TORTURE_SEED")) {
    seeds.push_back(std::strtoull(one, nullptr, 0));
  } else {
    if (const char* many = std::getenv("TORTURE_SEEDS")) {
      count = std::max(1, std::atoi(many));
    }
    for (int i = 0; i < count; ++i) {
      seeds.push_back(0xFA170 + static_cast<std::uint64_t>(i));
    }
  }
  return seeds;
}

TEST(TortureFailover, Smoke) {
  for (std::uint64_t seed : failover_seeds()) {
    for (BusEngine engine : {BusEngine::kCBased, BusEngine::kSienaBased}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " engine " +
                   std::string(to_string(engine)));
      run_failover_seed(seed, engine);
      if (HasFatalFailure()) return;  // trace dumped; stop at first failure
    }
  }
}

// The failover schedules with quenching on: promotions confirm (or
// replace) every re-homing member's carried filter table, and every
// failover guarantee must still hold.
TEST(TortureFailover, SmokeWithQuench) {
  for (std::uint64_t seed : failover_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " quench");
    run_failover_seed(seed, BusEngine::kCBased, /*quench=*/true);
    if (HasFatalFailure()) return;
  }
}

// Every failover schedule: exactly one primary core incident, always
// healed; at most one chain crash, always paired with a revive and only on
// crash schedules; an overload stall in every schedule; and none of the
// ops the failover oracle excludes by design.
TEST(TortureFailover, ScheduleShapeAndDeterminism) {
  using torture::TortureOp;
  torture::FailoverConfig config;
  bool any_chain = false;
  for (std::uint64_t seed = 0xFA170; seed < 0xFA170 + 12; ++seed) {
    Schedule a = torture::generate_failover_schedule(seed, config);
    Schedule b = torture::generate_failover_schedule(seed, config);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    int core_incidents = 0;
    int core_heals = 0;
    int core_crashes = 0;
    int chain_crashes = 0;
    int chain_revives = 0;
    int stalls = 0;
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].to_string(), b.steps[i].to_string());
      TortureOp op = a.steps[i].op;
      if (op == TortureOp::kCoreCrash || op == TortureOp::kSplitBrain) {
        ++core_incidents;
      }
      if (op == TortureOp::kCoreCrash) ++core_crashes;
      if (op == TortureOp::kCoreRevive || op == TortureOp::kHealPartition) {
        ++core_heals;
      }
      if (op == TortureOp::kChainCrash) ++chain_crashes;
      if (op == TortureOp::kChainRevive) ++chain_revives;
      if (op == TortureOp::kStall) ++stalls;
      EXPECT_LE(a.steps[i].at, config.horizon) << "seed " << seed;
      EXPECT_NE(op, TortureOp::kPartition);
      EXPECT_NE(op, TortureOp::kSubAdd);
      EXPECT_NE(op, TortureOp::kSubDrop);
    }
    EXPECT_EQ(core_incidents, 1) << "seed " << seed;
    EXPECT_EQ(core_heals, 1) << "seed " << seed;
    EXPECT_LE(chain_crashes, 1) << "seed " << seed;
    EXPECT_EQ(chain_crashes, chain_revives) << "seed " << seed;
    if (chain_crashes > 0) {
      EXPECT_EQ(core_crashes, 1)
          << "seed " << seed << ": chain crash on a split-brain schedule";
      any_chain = true;
    }
    EXPECT_GE(stalls, 1) << "seed " << seed << ": no overload stall";
  }
  EXPECT_TRUE(any_chain)
      << "no chain-crash schedule in the probe range; the double-crash "
         "surface is not being exercised";

  // A single-standby deployment has no chain to crash down.
  torture::FailoverConfig solo = config;
  solo.standbys = 1;
  for (std::uint64_t seed = 0xFA170; seed < 0xFA170 + 12; ++seed) {
    Schedule s = torture::generate_failover_schedule(seed, solo);
    for (const auto& step : s.steps) {
      EXPECT_NE(step.op, TortureOp::kChainCrash) << "seed " << seed;
    }
  }
}

// The sensitivity proof for the epoch-fencing fix: the same schedule, run
// twice — with the members' beacon fencing on it must pass; with the fence
// reverted it must fail. The bite needs a *split-brain* schedule: after a
// plain crash the dead core's sweep (its process outlives the host outage)
// purges everyone, so the revived core evicts the stale heartbeats and
// unfenced members recover through a fresh search — legitimate, fence-free
// recovery. In a split brain the old core keeps serving its members until
// the heal deposes it; only the fence pulls them onto the promoted epoch,
// so reverting it strands them on a silent core until the (deliberately
// distant, 60 s) loss timer — far past this test's quiesce cap. A torture
// suite that passed both ways would be checking nothing; this pins that
// the harness actually bites on the bug the fence fixes.
TEST(TortureFailover, FencingRevertIsCaught) {
  using torture::TortureOp;
  torture::FailoverConfig config;
  // Below the members' 60 s cell-lost timer, comfortably above the few
  // seconds a fenced re-home needs.
  config.quiesce_cap = seconds(30);
  // First seed in the probe range whose schedule rolls a split brain —
  // deterministic, and robust to generator drift.
  Schedule schedule;
  bool has_split = false;
  for (std::uint64_t seed = 0xFA180; seed < 0xFA1A0 && !has_split; ++seed) {
    schedule = torture::generate_failover_schedule(seed, config);
    for (const auto& s : schedule.steps) {
      has_split = has_split || s.op == TortureOp::kSplitBrain;
    }
  }
  ASSERT_TRUE(has_split)
      << "no split-brain schedule in the probe range; widen it";

  config.fence_epochs = true;
  TortureResult fenced = torture::run_failover_torture(schedule, config);
  EXPECT_TRUE(fenced.ok) << "[" << fenced.invariant << "] "
                         << fenced.violation;

  config.fence_epochs = false;
  TortureResult reverted = torture::run_failover_torture(schedule, config);
  EXPECT_FALSE(reverted.ok)
      << "epoch-fencing revert sailed through the failover torture — the "
         "suite has lost its sensitivity to the bug it exists to catch";
  if (std::getenv("TORTURE_VERBOSE") != nullptr && !reverted.ok) {
    std::fprintf(stderr, "[failover] revert caught as [%s] %s\n",
                 reverted.invariant.c_str(), reverted.violation.c_str());
  }
}

// The sensitivity proof for the quorum arbitration (DESIGN.md §13.5): the
// same two-standby schedule, run twice. With require_quorum on, the
// claim/vote protocol elects exactly one winner and the run passes. With
// it reverted — each standby promotes unilaterally the moment its own
// lease lapses, the pre-arbitration behaviour — both standbys promote at
// the same epoch and the harness must report the split cell as
// "double-promotion". A chain-free crash schedule keeps the failure mode
// pure: one incident, two rival claimants, one epoch.
TEST(TortureFailover, QuorumRevertIsCaught) {
  using torture::TortureOp;
  torture::FailoverConfig config;
  config.quiesce_cap = seconds(30);
  Schedule schedule;
  bool found = false;
  for (std::uint64_t seed = 0xFA1C0; seed < 0xFA1E0 && !found; ++seed) {
    schedule = torture::generate_failover_schedule(seed, config);
    bool crash = false;
    bool chain = false;
    for (const auto& s : schedule.steps) {
      crash = crash || s.op == TortureOp::kCoreCrash;
      chain = chain || s.op == TortureOp::kChainCrash;
    }
    found = crash && !chain;
  }
  ASSERT_TRUE(found)
      << "no chain-free crash schedule in the probe range; widen it";

  config.require_quorum = true;
  TortureResult arbitrated = torture::run_failover_torture(schedule, config);
  EXPECT_TRUE(arbitrated.ok)
      << "[" << arbitrated.invariant << "] " << arbitrated.violation;

  config.require_quorum = false;
  TortureResult reverted = torture::run_failover_torture(schedule, config);
  EXPECT_FALSE(reverted.ok)
      << "quorum revert sailed through the failover torture — with "
         "unilateral promotion two standbys must split the cell";
  EXPECT_EQ(reverted.invariant, "double-promotion")
      << "[" << reverted.invariant << "] " << reverted.violation;
}

TEST(SimNetworkFaults, UpdateLinkSwapsModelInPlace) {
  SimExecutor ex;
  SimNetwork net(ex, 7);
  SimHost& a = net.add_host("a", CostModel{});
  SimHost& b = net.add_host("b", CostModel{});
  auto ea = net.create_endpoint(a);
  auto eb = net.create_endpoint(b);
  int received = 0;
  eb->set_receive_handler([&](ServiceId, BytesView) { ++received; });

  LinkModel squeezed = net.default_link();
  squeezed.mtu = 4;
  net.update_link(a, b, squeezed);
  EXPECT_EQ(net.link_model(a, b).mtu, 4u);
  ea->send(eb->local_id(), to_bytes("too big"));
  ex.run_for(seconds(1));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_mtu, 1u);

  net.update_link(a, b, net.default_link());
  ea->send(eb->local_id(), to_bytes("too big"));
  ex.run_for(seconds(1));
  EXPECT_EQ(received, 1);
}

}  // namespace
}  // namespace amuse
