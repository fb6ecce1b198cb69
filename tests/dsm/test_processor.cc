/** @file Processor unit tests: the single hit path and the folded
 * compute prefix. A Processor runs a hand-built CompiledWorkload
 * against a real CacheCtrl, Directory and Network. Every memory op
 * goes through CacheCtrl::access(); a hit returns its latency and the
 * processor resumes itself, a miss completes at the fill. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsm/cache.hh"
#include "dsm/directory.hh"
#include "dsm/processor.hh"
#include "net/network.hh"
#include "workload/compiled_trace.hh"

using namespace mspdsm;

namespace
{

/**
 * Two nodes with real protocol agents. Processor 1 runs the trace
 * under test; node 0 is the home of every block the tests touch.
 */
struct ProcFixture : ::testing::Test
{
    ProcFixture()
    {
        cfg.numNodes = 2;
        cfg.netJitter = 0;
        net = std::make_unique<Network>(eq, cfg, Rng(3));
        for (NodeId n = 0; n < cfg.numNodes; ++n) {
            caches.push_back(
                std::make_unique<CacheCtrl>(n, eq, *net, cfg));
            dirs.push_back(std::make_unique<Directory>(
                n, eq, *net, cfg, std::vector<PredictorBase *>{},
                nullptr, SpecMode::None));
        }
        for (NodeId n = 0; n < cfg.numNodes; ++n)
            net->attach(n, *caches[n], *dirs[n]);
        proc = std::make_unique<Processor>(1, eq, *caches[1], barrier);
    }

    /** Compile @p t as processor 1's trace (processor 0 idles). */
    void
    compile(Trace t)
    {
        cw = std::make_unique<CompiledWorkload>(
            std::vector<Trace>{Trace{}, std::move(t)}, AddrMap(cfg));
    }

    /** Place an SWI-pushed copy of @p blk in node 1's remote cache. */
    void
    pushSpec(BlockId blk)
    {
        CohMsg m;
        m.type = MsgType::SpecData;
        m.src = 0;
        m.dst = 1;
        m.blk = blk;
        m.trigger = SpecTrigger::Swi;
        net->send(m);
        ASSERT_TRUE(eq.run());
        ASSERT_TRUE(caches[1]->hasUnreferencedSpec(blk));
    }

    CacheCtrl &cache() { return *caches[1]; }

    EventQueue eq;
    ProtoConfig cfg;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<CacheCtrl>> caches;
    std::vector<std::unique_ptr<Directory>> dirs;
    std::unique_ptr<CompiledWorkload> cw;
    GlobalBarrier barrier{eq, 1, 0};
    std::unique_ptr<Processor> proc; //!< processor 1
};

/** Byte address of a block homed at node 0 (page 0). */
constexpr Addr homeZeroBlock = 0;

} // namespace

TEST_F(ProcFixture, ReadHitResumesAfterCacheHitAndIsNotRequestWait)
{
    // A remote read miss, then a read hit on the filled copy.
    compile(Trace{TraceOp::read(homeZeroBlock),
                  TraceOp::read(homeZeroBlock)});
    proc->start(cw->trace(1));
    ASSERT_TRUE(eq.run());
    ASSERT_TRUE(proc->done());

    const ProcStats &s = proc->stats();
    EXPECT_EQ(s.ops, 2u);
    EXPECT_EQ(cache().stats().demandReads.value(), 1u);
    EXPECT_EQ(cache().stats().readHits.value(), 1u);
    // Started at tick 0 with no compute: all of the run is memory
    // stall. The hit adds exactly cacheHit ticks after the fill, and
    // only to memWait -- the miss alone is request waiting time.
    EXPECT_EQ(s.memWait, s.finishTick);
    EXPECT_GT(s.requestWait, 0u);
    EXPECT_EQ(s.memWait - s.requestWait, cfg.cacheHit);
}

TEST_F(ProcFixture, FirstTouchOfSpecCopyCostsMemAccessLocally)
{
    // The first access by this trace finds a speculatively pushed
    // copy: one remote-cache access, served node-locally through the
    // same single path as any hit.
    compile(Trace{TraceOp::read(homeZeroBlock)});
    const BlockId blk = cw->blockOf(homeZeroBlock);
    pushSpec(blk);
    const std::uint64_t sent = net->messagesSent();
    const Tick start = eq.curTick();

    proc->start(cw->trace(1));
    ASSERT_TRUE(eq.run());
    ASSERT_TRUE(proc->done());

    const ProcStats &s = proc->stats();
    EXPECT_EQ(s.finishTick - start, cfg.memAccess);
    EXPECT_EQ(s.memWait, cfg.memAccess);
    EXPECT_EQ(s.requestWait, 0u);
    EXPECT_EQ(cache().stats().readHits.value(), 1u);
    EXPECT_EQ(cache().stats().specServedSwi.value(), 1u);
    EXPECT_EQ(cache().stats().demandReads.value(), 0u);
    EXPECT_EQ(net->messagesSent(), sent); // no request left the node
    EXPECT_FALSE(cache().hasUnreferencedSpec(blk));
}

TEST_F(ProcFixture, KillDuringHitResumeRestartsWithoutReexecuting)
{
    compile(Trace{TraceOp::read(homeZeroBlock)});
    pushSpec(cw->blockOf(homeZeroBlock));
    const Tick start = eq.curTick();

    proc->start(cw->trace(1));
    // Stop halfway through the memAccess-tick hit resume.
    const Tick mid = start + cfg.memAccess / 2;
    ASSERT_FALSE(eq.run(mid));
    ASSERT_EQ(proc->stats().ops, 1u);
    ASSERT_EQ(cache().stats().readHits.value(), 1u);

    // Fail-stop the node as the fault layer does: processor first,
    // then its cache. The op already executed, so nothing rewinds.
    proc->kill();
    cache().kill();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(proc->done());

    proc->restart();
    ASSERT_TRUE(eq.run());
    ASSERT_TRUE(proc->done());
    // Resumed at the remembered tick, with the op counted once and
    // no second access against the cold cache.
    EXPECT_EQ(proc->stats().finishTick, start + cfg.memAccess);
    EXPECT_EQ(proc->stats().ops, 1u);
    EXPECT_EQ(cache().stats().readHits.value(), 1u);
    EXPECT_EQ(cache().stats().demandReads.value(), 0u);
}

/** A 100-cycle compute that the compiler folds into the read after it. */
constexpr Tick prefix = 100;

TEST_F(ProcFixture, KillDuringPrefixResumesTheAccessWithoutSecondDelay)
{
    compile(Trace{TraceOp::compute(prefix), TraceOp::read(homeZeroBlock)});
    ASSERT_EQ(cw->trace(1).size(), 1u);
    ASSERT_EQ(cw->trace(1)[0].delay(), prefix);
    pushSpec(cw->blockOf(homeZeroBlock));
    const Tick start = eq.curTick();

    proc->start(cw->trace(1));
    ASSERT_FALSE(eq.run(start + prefix / 2));
    // The prefix ran as its own op; the access has not issued.
    ASSERT_EQ(proc->stats().ops, 1u);
    ASSERT_EQ(cache().stats().readHits.value(), 0u);

    proc->kill();
    cache().kill();
    EXPECT_EQ(eq.pending(), 0u);

    proc->restart();
    ASSERT_TRUE(eq.run());
    ASSERT_TRUE(proc->done());
    // The access issued at the remembered tick (the line is gone with
    // the cache, so it misses) and the delay was not waited out twice.
    EXPECT_EQ(proc->stats().ops, 2u);
    EXPECT_EQ(cache().stats().demandReads.value(), 1u);
    EXPECT_EQ(proc->stats().finishTick,
              start + prefix + proc->stats().memWait);
}

TEST_F(ProcFixture, KillWhileBlockedReissuesOnlyTheAccess)
{
    caches[1]->enableFaults(); // drops the dead incarnation's fill
    compile(Trace{TraceOp::compute(prefix), TraceOp::read(homeZeroBlock)});
    const Tick start = eq.curTick();

    proc->start(cw->trace(1));
    ASSERT_FALSE(eq.run(start + prefix + 1));
    ASSERT_TRUE(cache().missOutstanding());
    ASSERT_EQ(proc->stats().ops, 2u);

    proc->kill();
    cache().kill();
    // Let the first request's reply land on the killed cache.
    ASSERT_TRUE(eq.run());
    EXPECT_EQ(cache().stats().staleFills.value(), 1u);

    const Tick restart = eq.curTick();
    proc->restart();
    ASSERT_FALSE(eq.run(restart));
    // Re-issued at the restart tick itself, with no second prefix.
    EXPECT_TRUE(cache().missOutstanding());
    EXPECT_EQ(cache().stats().demandReads.value(), 2u);
    ASSERT_TRUE(eq.run());
    ASSERT_TRUE(proc->done());
    // The prefix counts once and the access once: the squashed issue
    // was rewound.
    EXPECT_EQ(proc->stats().ops, 2u);
    EXPECT_EQ(cache().lineState(cw->blockOf(homeZeroBlock)),
              LineState::Shared);
}

TEST_F(ProcFixture, PrefixedAccessRightAfterBarrierRelease)
{
    compile(Trace{TraceOp::barrier(), TraceOp::compute(prefix),
                  TraceOp::read(homeZeroBlock)});
    ASSERT_EQ(cw->trace(1).size(), 2u);
    pushSpec(cw->blockOf(homeZeroBlock));
    const Tick start = eq.curTick();

    proc->start(cw->trace(1));
    ASSERT_TRUE(eq.run());
    ASSERT_TRUE(proc->done());
    // The release resumes the processor at once (one party, no
    // cost); the prefix then runs in full before the access.
    EXPECT_EQ(barrier.episodes(), 1u);
    EXPECT_EQ(proc->stats().ops, 3u);
    EXPECT_EQ(proc->stats().finishTick, start + prefix + cfg.memAccess);
    EXPECT_EQ(proc->stats().memWait, cfg.memAccess);
    EXPECT_EQ(cache().stats().specServedSwi.value(), 1u);
}
