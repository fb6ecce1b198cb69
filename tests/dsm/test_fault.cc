/** @file Fault injection and recovery: determinism of faulted runs,
 * inertness of the fault layer when unconfigured, recovery-phase
 * bookkeeping, warm-restart checkpointing, and the bounded-retry
 * exhaustion path.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dsm/system.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"

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
    ec.failNode = 3;
    ec.failTick = 40000;
    ec.recoverTick = 70000;
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
    EXPECT_EQ(a.fault.ckptSnapshots, b.fault.ckptSnapshots);
    EXPECT_EQ(a.fault.ckptMessages, b.fault.ckptMessages);
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
        const RunResult r = sys.run(w.traces);
        ASSERT_EQ(r.status, RunStatus::Completed);

        std::set<Addr> addrs;
        for (const Trace &t : w.traces)
            for (const TraceOp &op : t)
                if (op.kind() == OpKind::Read || op.kind() == OpKind::Write)
                    addrs.insert(op.addr());
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
        SweepOptions so;
        so.jobs = jobs;
        SweepRunner sweep(so);
        for (const bool warm : {false, true}) {
            ExperimentConfig ec = faulted();
            ec.warmRestart = warm;
            ec.ckptInterval = warm ? 10000 : 0;
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

TEST(Fault, WarmRestartReplicatesCheckpoints)
{
    ExperimentConfig ec = faulted();
    ec.warmRestart = true;
    ec.ckptInterval = 10000;
    const RunResult warm =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(warm.status, RunStatus::Completed);
    // Checkpoints fire at 10k/20k/30k while the kill is pending (the
    // 40k snapshot loses the same-tick FIFO race to the kill event,
    // which was scheduled at construction); each ships at least one
    // CkptData message to the backup.
    EXPECT_GE(warm.fault.ckptSnapshots, 3u);
    EXPECT_GE(warm.fault.ckptMessages, warm.fault.ckptSnapshots);

    const RunResult cold =
        runSpec("em3d", SpecMode::SwiFirstRead, faulted());
    EXPECT_EQ(cold.fault.ckptSnapshots, 0u);
    EXPECT_EQ(cold.fault.ckptMessages, 0u);
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
    EXPECT_EQ(r.fault.ckptSnapshots, 0u);
}

TEST(Fault, RetryKnobDefaultsAreBitIdentical)
{
    // Satellite: the bounded-retry FSM constants moved from
    // compile-time to DsmConfig. Passing the old constants explicitly
    // must be indistinguishable from not passing them at all.
    ExperimentConfig explicitKnobs = tiny();
    explicitKnobs.retryLimit = 16;
    explicitKnobs.staleTimeout = 20000;
    const RunResult a =
        runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    const RunResult b =
        runSpec("em3d", SpecMode::SwiFirstRead, explicitKnobs);
    expectIdentical(a, b);
    EXPECT_EQ(b.execTicks, 120022u); // still the golden run
    EXPECT_EQ(b.messages, 1984u);
}

TEST(Fault, ShardReplicationAvoidsTheSurvivorSweep)
{
    // With --replicate-shards the backup installs the streamed mirror
    // at failover: replication traffic (batched ShardSync) replaces
    // reconstruction traffic (RehomeSync) entirely, and the cost
    // moves from the outage into normal operation.
    ExperimentConfig ec = faulted();
    ec.replicateShards = true;
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
    ec.extraFaults = {{40000, 3, FaultKind::Kill},
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
    ec.failNode = 3;
    ec.failTick = 40000;
    ec.recoverTick = 40100; // inside the sync/retry storm
    const RunResult r =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.fault.failbacks, 1u);
    EXPECT_GT(r.fault.opsAtEnd, r.fault.opsAtKill);

    const RunResult again =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    expectIdentical(r, again);
}

TEST(Fault, LossyLinksRetransmitDeterministically)
{
    // A loss-only plan (no kills): every third head crossing link 0
    // of the mesh drops and is retransmitted. The run completes, the
    // transport accounts one re-send per drop, and the whole thing is
    // bit-repeatable.
    ExperimentConfig ec = tiny();
    ec.topo.kind = TopoKind::Mesh2D;
    ec.linkLoss = {{0, maxTick, 0, 3}};
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
        SweepOptions so;
        so.jobs = jobs;
        SweepRunner sweep(so);
        for (const bool repl : {false, true}) {
            ExperimentConfig ec = tiny();
            ec.topo.kind = TopoKind::Mesh2D;
            ec.extraFaults = {{40000, 3, FaultKind::Kill},
                              {42000, 4, FaultKind::Kill},
                              {70000, 3, FaultKind::Restart},
                              {72000, 4, FaultKind::Restart}};
            ec.linkLoss = {{0, maxTick, 0, 5}};
            ec.replicateShards = repl;
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

TEST(FaultDeathTest, RetryExhaustionIsFatal)
{
    // backup == victim leaves the re-homed shard just as dead as the
    // node: every retry bounces until the cache controller's bounded
    // FSM gives up with a structured fatal (exit code 1).
    ExperimentConfig ec = tiny();
    ec.failNode = 3;
    ec.failTick = 5000; // mid-flight: survivors still miss on node 3
    ec.backupNode = 3;  // deliberately pathological: no live home
    EXPECT_EXIT(runSpec("em3d", SpecMode::None, ec),
                ::testing::ExitedWithCode(1), "exhausted");
}

TEST(FaultDeathTest, RetryExhaustionDuringOverlappingOutage)
{
    // Satellite edge case: the explicit backup itself dies during the
    // first outage. The explicit --backup-node is honored verbatim
    // (succession only applies to the *default* backup choice), so
    // shard 4 -- and shard 3 hosted on it -- have no live home and
    // the bounded retry FSM must still fail structurally, now with a
    // configurable --retry-limit to reach the exit quickly.
    ExperimentConfig ec = tiny();
    ec.extraFaults = {{5000, 3, FaultKind::Kill},
                      {5200, 4, FaultKind::Kill}};
    ec.backupNode = 4;
    ec.retryLimit = 6;
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
    ec.linkLoss = {{0, maxTick, 0, 1}};
    EXPECT_EXIT(runSpec("em3d", SpecMode::None, ec),
                ::testing::ExitedWithCode(1), "retransmit budget");
}
