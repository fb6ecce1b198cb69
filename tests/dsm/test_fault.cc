/** @file Fault injection and recovery: determinism of faulted runs,
 * inertness of the fault layer when unconfigured, recovery-phase
 * bookkeeping, the cold restart of a victim's predictor, and the
 * bounded-retry exhaustion path.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dsm/system.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "testutil.hh"
#include "workload/suite.hh"

using namespace mspdsm;

namespace
{

ExperimentConfig
tiny()
{
    ExperimentConfig ec;
    ec.scale = 0.25;
    ec.iterations = 2;
    return ec;
}

/** tiny() plus the reference fault plan used throughout this file:
 * kill node 3 mid-run, restart it 30k ticks later. */
ExperimentConfig
faulted()
{
    ExperimentConfig ec = tiny();
    ec.faults.events = {{40000, 3, FaultKind::Kill},
                        {70000, 3, FaultKind::Restart}};
    return ec;
}

/** Every externally observable number of a run, fault axis included. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.specServedSwi, b.specServedSwi);
    EXPECT_EQ(a.swiSent, b.swiSent);
    EXPECT_EQ(a.queueingCycles, b.queueingCycles);
    EXPECT_EQ(a.linkQueueingCycles, b.linkQueueingCycles);
    EXPECT_EQ(a.fault.killTick, b.fault.killTick);
    EXPECT_EQ(a.fault.restartTick, b.fault.restartTick);
    EXPECT_EQ(a.fault.recoveredTick, b.fault.recoveredTick);
    EXPECT_EQ(a.fault.opsAtKill, b.fault.opsAtKill);
    EXPECT_EQ(a.fault.opsAtRestart, b.fault.opsAtRestart);
    EXPECT_EQ(a.fault.opsAtEnd, b.fault.opsAtEnd);
    EXPECT_EQ(a.fault.staleDropped, b.fault.staleDropped);
    EXPECT_EQ(a.fault.deadDropped, b.fault.deadDropped);
    EXPECT_EQ(a.fault.nacksSent, b.fault.nacksSent);
    EXPECT_EQ(a.fault.rehomeSyncs, b.fault.rehomeSyncs);
    EXPECT_EQ(a.fault.retries, b.fault.retries);
    EXPECT_EQ(a.fault.nacksSeen, b.fault.nacksSeen);
    EXPECT_EQ(a.fault.timeouts, b.fault.timeouts);
    EXPECT_EQ(a.fault.staleFills, b.fault.staleFills);
    EXPECT_EQ(a.fault.dirAborts, b.fault.dirAborts);
    EXPECT_EQ(a.fault.shardDeltas, b.fault.shardDeltas);
    EXPECT_EQ(a.fault.shardSyncs, b.fault.shardSyncs);
    EXPECT_EQ(a.fault.failbacks, b.fault.failbacks);
    EXPECT_EQ(a.fault.misroutedDropped, b.fault.misroutedDropped);
    EXPECT_EQ(a.fault.linkDrops, b.fault.linkDrops);
    EXPECT_EQ(a.fault.retransmits, b.fault.retransmits);
}

} // namespace

TEST(Fault, UnconfiguredRunCarriesNoFaultState)
{
    // Inertness: without a plan the fault axis of the result is
    // all-zero and the run itself matches the pinned golden numbers
    // (the same constants tests/integration/test_golden.cc pins, so
    // the fault layer provably did not perturb the machine).
    const RunResult r = runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, 120022u);
    EXPECT_EQ(r.messages, 1984u);
    EXPECT_FALSE(r.fault.faulted);
    EXPECT_EQ(r.fault.killTick, 0u);
    EXPECT_EQ(r.fault.retries, 0u);
    EXPECT_EQ(r.fault.nacksSeen, 0u);
    EXPECT_EQ(r.fault.timeouts, 0u);
    EXPECT_EQ(r.fault.staleFills, 0u);
    EXPECT_EQ(r.fault.dirAborts, 0u);
    EXPECT_EQ(r.fault.opsAtEnd, 0u);
    EXPECT_EQ(r.fault.shardDeltas, 0u);
    EXPECT_EQ(r.fault.shardSyncs, 0u);
    EXPECT_EQ(r.fault.failbacks, 0u);
    EXPECT_EQ(r.fault.misroutedDropped, 0u);
    EXPECT_EQ(r.fault.linkDrops, 0u);
    EXPECT_EQ(r.fault.retransmits, 0u);
}

TEST(Fault, KillAndRecoveryBookkeeping)
{
    const RunResult r =
        runSpec("em3d", SpecMode::SwiFirstRead, faulted());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_TRUE(r.fault.faulted);
    EXPECT_EQ(r.fault.killTick, 40000u);
    EXPECT_EQ(r.fault.restartTick, 70000u);
    // The victim took its first post-restart step no earlier than the
    // restart, and the machine kept executing afterwards.
    EXPECT_GE(r.fault.recoveredTick, r.fault.restartTick);
    EXPECT_GE(r.fault.opsAtRestart, r.fault.opsAtKill);
    EXPECT_GT(r.fault.opsAtEnd, r.fault.opsAtRestart);
    // The outage costs time against the fault-free golden run.
    EXPECT_GT(r.execTicks, 120022u);
    // em3d shares every block across the machine: survivors always
    // hold lines homed at the victim, so the backup's reconstruction
    // sweep always has contributors.
    EXPECT_GT(r.fault.rehomeSyncs, 0u);
}

/**
 * After a kill, re-home, restart and fail-back (with and without shard
 * replication), the machine state must still be coherent: every
 * touched block, found through the run's own block numbering, has at
 * most one Modified copy, and that copy is the owner its restored home
 * directory records. Most blocks still hold a valid copy somewhere,
 * so the checks do not pass on empty state.
 */
TEST(Fault, RecoveredMachineStateIsCoherent)
{
    for (const bool replicate : {false, true}) {
        AppParams p;
        p.scale = 0.25;
        p.iterations = 2;
        const Workload w = makeApp("em3d", p);
        DsmConfig cfg;
        cfg.proto.netJitter = w.netJitter;
        cfg.pred = PredKind::Vmsp;
        cfg.spec = SpecMode::SwiFirstRead;
        cfg.faults.events = {{40000, 3, FaultKind::Kill},
                             {70000, 3, FaultKind::Restart}};
        cfg.faults.replicateShards = replicate;
        DsmSystem sys(cfg);
        const RunResult r = sys.run(w);
        ASSERT_EQ(r.status, RunStatus::Completed);

        std::set<Addr> addrs;
        for (const PackedTrace &t : w.ops)
            for (const CompiledOp &op : t)
                if (op.isAccess())
                    addrs.insert(op.block() * w.blockSize);
        std::size_t live = 0;
        for (const Addr a : addrs) {
            const BlockId blk = sys.blockOf(a);
            ASSERT_NE(blk, invalidBlock);
            Directory &dir = sys.directory(cfg.proto.homeOf(blk));
            int modified = 0, valid = 0;
            for (NodeId q = 0; q < cfg.proto.numNodes; ++q) {
                const LineState ls = sys.cache(q).lineState(blk);
                valid += ls != LineState::Invalid;
                if (ls == LineState::Modified) {
                    ++modified;
                    EXPECT_EQ(dir.ownerOf(blk), q) << "block " << blk;
                }
            }
            EXPECT_LE(modified, 1) << "block " << blk;
            live += valid > 0;
        }
        EXPECT_GE(4 * live, 3 * addrs.size())
            << live << " of " << addrs.size() << " blocks live";
    }
}

/**
 * Fail-back rebuilds the shard from what the live caches hold, with
 * shard replication too. fig11's `--scale 0.25 --iters 2` em3d run
 * under three victims: nodes 5 and 6 die and restart cold before
 * node 3's shard fails back at tick 70000. Stopped right there,
 * every holder the restored home records for a shard-3 block must
 * hold a valid line; a record streamed to the backup before the
 * outages would still name the restarted nodes.
 */
TEST(Fault, FailBackRecordsOnlyLiveHolders)
{
    for (const SpecMode mode : {SpecMode::None, SpecMode::SwiFirstRead}) {
        AppParams p;
        p.scale = 0.25;
        p.iterations = 2;
        const Workload w = makeApp("em3d", p);
        DsmConfig cfg;
        cfg.proto.seed = p.seed;
        cfg.proto.netJitter = w.netJitter;
        cfg.pred = PredKind::Vmsp;
        cfg.historyDepth = 1;
        cfg.spec = mode;
        cfg.tickLimit = 70000;
        cfg.faults.events = {{40000, 3, FaultKind::Kill},
                             {70000, 3, FaultKind::Restart},
                             {30000, 5, FaultKind::Kill},
                             {31000, 6, FaultKind::Kill},
                             {60000, 5, FaultKind::Restart},
                             {62000, 6, FaultKind::Restart}};
        cfg.faults.replicateShards = true;
        DsmSystem sys(cfg);
        const RunResult r = sys.run(w);
        ASSERT_EQ(r.status, RunStatus::TickLimit);
        ASSERT_EQ(r.fault.failbacks, 3u);

        std::set<BlockId> blocks;
        for (const PackedTrace &t : w.ops)
            for (const CompiledOp &op : t)
                if (op.isAccess())
                    blocks.insert(sys.blockOf(op.block() * w.blockSize));
        const Directory &dir = sys.directory(3);
        std::size_t recorded = 0;
        for (const BlockId blk : blocks) {
            if (cfg.proto.homeOf(blk) != 3)
                continue;
            NodeSet holders = dir.sharersOf(blk);
            if (dir.ownerOf(blk) != invalidNode)
                holders.add(dir.ownerOf(blk));
            for (const NodeId q : holders) {
                ++recorded;
                EXPECT_NE(sys.cache(q).lineState(blk), LineState::Invalid)
                    << "block " << blk << " records node " << q;
            }
        }
        EXPECT_GT(recorded, 0u);
    }
}

TEST(Fault, FaultedRunsAreDeterministic)
{
    const RunResult a =
        runSpec("em3d", SpecMode::SwiFirstRead, faulted());
    const RunResult b =
        runSpec("em3d", SpecMode::SwiFirstRead, faulted());
    expectIdentical(a, b);
}

TEST(Fault, FaultSweepIsJobCountInvariant)
{
    // The same four faulted configurations, serial vs eight workers:
    // records come back in submission order with identical numbers.
    auto build = [](unsigned jobs) {
        SweepRunner sweep(jobs);
        for (const bool repl : {false, true}) {
            ExperimentConfig ec = faulted();
            ec.faults.replicateShards = repl;
            sweep.addSpec("em3d", SpecMode::None, ec);
            sweep.addSpec("em3d", SpecMode::SwiFirstRead, ec);
        }
        return sweep.results();
    };
    const std::vector<SweepRecord> serial = build(1);
    const std::vector<SweepRecord> parallel = build(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, parallel[i].label);
        expectIdentical(serial[i].result, parallel[i].result);
    }
}

/**
 * A kill drops every predictor resident at the victim: restart is
 * cold. em3d under a kill-only plan (node 3 dies at tick 40000 and
 * never comes back): the survivors park at the next barrier and the
 * run ends with partial results. The victim's VMSP holds no live
 * block at the end, while its backup, node 4, still holds learned
 * state.
 */
TEST(Fault, KilledNodesPredictorHoldsNoState)
{
    AppParams p;
    p.scale = 0.25;
    p.iterations = 2;
    const Workload w = makeApp("em3d", p);
    DsmConfig cfg;
    cfg.proto.seed = p.seed;
    cfg.proto.netJitter = w.netJitter;
    cfg.pred = PredKind::Vmsp;
    cfg.historyDepth = 1;
    cfg.spec = SpecMode::SwiFirstRead;
    cfg.faults.events = {{40000, 3, FaultKind::Kill}};
    DsmSystem sys(cfg);
    const RunResult r = sys.run(w);
    EXPECT_EQ(r.status, RunStatus::TickLimit);
    EXPECT_EQ(r.fault.killTick, 40000u);
    EXPECT_GT(r.fault.opsAtEnd, r.fault.opsAtKill);
    EXPECT_EQ(sys.predictor(3)->storage().blocksAllocated, 0u);
    EXPECT_GT(sys.predictor(4)->storage().blocksAllocated, 0u);
}

TEST(Fault, BaseDsmSurvivesTheFaultToo)
{
    // The fault layer is independent of speculation: a Base-DSM run
    // (no predictor at all) takes the same kill/restart plan.
    const RunResult r = runSpec("em3d", SpecMode::None, faulted());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_TRUE(r.fault.faulted);
    EXPECT_EQ(r.fault.killTick, 40000u);
    EXPECT_GT(r.fault.opsAtEnd, r.fault.opsAtRestart);
}

TEST(Fault, ShardReplicationAvoidsTheSurvivorSweep)
{
    // With --replicate-shards the failover sweep sends no RehomeSync:
    // replication traffic (batched ShardSync) replaces reconstruction
    // traffic entirely, and the cost moves from the outage into
    // normal operation.
    ExperimentConfig ec = faulted();
    ec.faults.replicateShards = true;
    const RunResult r =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_GT(r.fault.shardDeltas, 0u);
    EXPECT_GT(r.fault.shardSyncs, 0u);
    EXPECT_EQ(r.fault.rehomeSyncs, 0u);
    // Deltas batch 8-to-a-message, so syncs stay well below deltas.
    EXPECT_LT(r.fault.shardSyncs, r.fault.shardDeltas);

    const RunResult again =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    expectIdentical(r, again);
}

TEST(Fault, ConcurrentFailuresCascadeThroughSuccession)
{
    // Two overlapping outages: node 4 is node 3's successor, so when
    // 4 dies while hosting 3's shard, both shards cascade to the next
    // live node. Each restart then fail-backs its own shard.
    ExperimentConfig ec = tiny();
    ec.faults.events = {{40000, 3, FaultKind::Kill},
                        {42000, 4, FaultKind::Kill},
                        {70000, 3, FaultKind::Restart},
                        {72000, 4, FaultKind::Restart}};
    const RunResult r =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_TRUE(r.fault.faulted);
    EXPECT_EQ(r.fault.killTick, 40000u);    // first kill
    EXPECT_EQ(r.fault.restartTick, 72000u); // last restart
    // recoveredTick is the max over both victims' first steps.
    EXPECT_GE(r.fault.recoveredTick, 72000u);
    EXPECT_EQ(r.fault.failbacks, 2u);
    EXPECT_GT(r.fault.opsAtEnd, r.fault.opsAtRestart);

    const RunResult again =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    expectIdentical(r, again);
}

TEST(Fault, RestartInsideTheRehomeWindow)
{
    // Satellite edge case: the victim restarts while the backup's
    // reconstruction RehomeSync messages are still in flight. The
    // epoch bump plus the home screen (stale copies bound for the
    // interim host are Nacked or dropped) keep the run live and
    // deterministic.
    ExperimentConfig ec = tiny();
    ec.faults.events = {{40000, 3, FaultKind::Kill},
                        {40100, 3, FaultKind::Restart}}; // in the storm
    const RunResult r =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.fault.failbacks, 1u);
    EXPECT_GT(r.fault.opsAtEnd, r.fault.opsAtKill);

    const RunResult again =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    expectIdentical(r, again);
}

TEST(Fault, ShortOutageFillsMatchTheirMiss)
{
    // Regression: a 50-tick outage early in the run. A DataShared
    // answering a read the victim issued before the kill used to
    // complete the restarted node's write miss on the same block,
    // leaving the line Shared while the home recorded the node as
    // owner; the next Recall then panicked. A fill must match its
    // miss's kind as well as its block. This is fig9's whole sweep
    // under `--kill 3@1000 --restart 3@1050`.
    ExperimentConfig ec = tiny();
    ec.faults.events = {{1000, 3, FaultKind::Kill},
                        {1050, 3, FaultKind::Restart}};
    std::uint64_t stale = 0;
    for (const AppInfo &info : appSuite()) {
        for (const SpecMode m : {SpecMode::None, SpecMode::FirstRead,
                                 SpecMode::SwiFirstRead}) {
            const RunResult r = runSpec(info.name, m, ec);
            EXPECT_EQ(r.status, RunStatus::Completed)
                << info.name << " mode " << static_cast<int>(m);
            EXPECT_EQ(r.fault.failbacks, 1u) << info.name;
            stale += r.fault.staleFills;
        }
    }
    EXPECT_GT(stale, 0u);
}

TEST(Fault, LossyLinksRetransmitDeterministically)
{
    // A loss-only plan (no kills): every third head crossing link 0
    // of the mesh drops and is retransmitted. The run completes, the
    // transport accounts one re-send per drop, and the whole thing is
    // bit-repeatable.
    ExperimentConfig ec = tiny();
    ec.topo.kind = TopoKind::Mesh2D;
    ec.faults.linkLoss = {{0, maxTick, 0, 3}};
    const RunResult r =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_TRUE(r.fault.faulted);
    EXPECT_GT(r.fault.linkDrops, 0u);
    EXPECT_EQ(r.fault.retransmits, r.fault.linkDrops);

    const RunResult again =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    expectIdentical(r, again);
}

TEST(Fault, ChaosRunIsJobCountInvariant)
{
    // The acceptance scenario: two concurrent failures plus a lossy
    // link on a link topology, swept serially and with eight workers.
    auto build = [](unsigned jobs) {
        SweepRunner sweep(jobs);
        for (const bool repl : {false, true}) {
            ExperimentConfig ec = tiny();
            ec.topo.kind = TopoKind::Mesh2D;
            ec.faults.events = {{40000, 3, FaultKind::Kill},
                                {42000, 4, FaultKind::Kill},
                                {70000, 3, FaultKind::Restart},
                                {72000, 4, FaultKind::Restart}};
            ec.faults.linkLoss = {{0, maxTick, 0, 5}};
            ec.faults.replicateShards = repl;
            sweep.addSpec("em3d", SpecMode::None, ec);
            sweep.addSpec("em3d", SpecMode::SwiFirstRead, ec);
        }
        return sweep.results();
    };
    const std::vector<SweepRecord> serial = build(1);
    const std::vector<SweepRecord> parallel = build(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, parallel[i].label);
        expectIdentical(serial[i].result, parallel[i].result);
    }
}

using FaultDeathTest = ::testing::Test;

TEST(Fault, PruneDeadDropsOnlyTheDeadNodesDeferredRequests)
{
    // Node 1's write holds block 0 busy at node 0 while writes from
    // nodes 4, 2, 5, 3 arrive one tick apart and defer. When node 1's
    // grant lands, node 4's write is in service and 2, 5, 3 wait.
    // Node 5 dies then: its request goes, the others keep their
    // arrival order.
    test::AccessRig rig(6);
    rig.onDone = [&rig](NodeId n) {
        if (n == 1)
            rig.dirs[0].pruneDead(5);
    };
    rig.issueAt(0, 1, 0, true);
    const NodeId arrivals[] = {4, 2, 5, 3};
    for (unsigned i = 0; i < 4; ++i)
        rig.issueAt(1 + i, arrivals[i], 0, true);
    ASSERT_TRUE(rig.eq.run());
    EXPECT_EQ(rig.order, (std::vector<NodeId>{1, 4, 2, 3}));
    EXPECT_EQ(rig.dirs[0].stats().recalls.value(), 3u);
}

TEST(FaultDeathTest, RetryExhaustionIsFatal)
{
    // backup == victim leaves the re-homed shard just as dead as the
    // node: every retry bounces until the cache controller's bounded
    // FSM gives up with a structured fatal (exit code 1).
    ExperimentConfig ec = tiny();
    // Mid-flight: survivors still miss on node 3, and the backup is
    // deliberately pathological: no live home.
    ec.faults.events = {{5000, 3, FaultKind::Kill}};
    ec.faults.backup = 3;
    EXPECT_EXIT(runSpec("em3d", SpecMode::None, ec),
                ::testing::ExitedWithCode(1), "exhausted");
}

TEST(FaultDeathTest, RetryExhaustionDuringOverlappingOutage)
{
    // The explicit backup itself dies during the first outage. An
    // explicit FaultPlan::backup is honored verbatim (succession only
    // applies to the *default* backup choice), so shard 4 -- and
    // shard 3 hosted on it -- have no live home and the bounded
    // retry FSM must still fail structurally after its 16 retries.
    ExperimentConfig ec = tiny();
    ec.faults.events = {{5000, 3, FaultKind::Kill},
                        {5200, 4, FaultKind::Kill}};
    ec.faults.backup = 4;
    EXPECT_EXIT(runSpec("em3d", SpecMode::None, ec),
                ::testing::ExitedWithCode(1), "exhausted");
}

TEST(FaultDeathTest, RetransmitBudgetExhaustionIsFatal)
{
    // everyNth == 1 drops *every* crossing of link 0: the first
    // message routed over it burns its whole transport budget and
    // the run dies with the structured transport fatal.
    ExperimentConfig ec = tiny();
    ec.topo.kind = TopoKind::Mesh2D;
    ec.faults.linkLoss = {{0, maxTick, 0, 1}};
    EXPECT_EXIT(runSpec("em3d", SpecMode::None, ec),
                ::testing::ExitedWithCode(1), "retransmit budget");
}
