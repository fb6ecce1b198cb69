/** @file End-to-end protocol transactions on a small system:
 * latencies, state transitions and message flows of Figure 1. */

#include <gtest/gtest.h>

#include "testutil.hh"

using namespace mspdsm;
using namespace mspdsm::test;

TEST(Protocol, RemoteReadMissCostsPaperLatency)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    // Node 1 reads a block homed at node 0 (Idle at the directory).
    Trace t{TraceOp::read(blockOn(cfg.proto, 0))};
    const RunResult r = sys.run(soloTrace(4, 1, t));
    // Table 1: round-trip miss latency 418 cycles.
    EXPECT_NEAR(static_cast<double>(r.execTicks), 418.0, 6.0);
    EXPECT_EQ(r.reads, 1u);
}

TEST(Protocol, LocalReadIsRoughlyMemoryLatency)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    Trace t{TraceOp::read(blockOn(cfg.proto, 1))};
    const RunResult r = sys.run(soloTrace(4, 1, t));
    // Table 1: local access ~104 cycles; small bus/dir overhead on
    // top. The remote-to-local ratio of ~4 is the key property.
    EXPECT_NEAR(static_cast<double>(r.execTicks), 104.0, 8.0);
}

TEST(Protocol, RemoteToLocalRatioIsAboutFour)
{
    DsmConfig cfg = smallConfig();
    Tick local = 0, remote = 0;
    {
        DsmSystem sys(cfg);
        local = sys.run(soloTrace(4, 1,
                                  Trace{TraceOp::read(
                                      blockOn(cfg.proto, 1))}))
                    .execTicks;
    }
    {
        DsmSystem sys(cfg);
        remote = sys.run(soloTrace(4, 1,
                                   Trace{TraceOp::read(
                                       blockOn(cfg.proto, 0))}))
                     .execTicks;
    }
    const double rtl =
        static_cast<double>(remote) / static_cast<double>(local);
    EXPECT_GT(rtl, 3.5);
    EXPECT_LT(rtl, 4.5);
}

TEST(Protocol, ReadThenCacheHit)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    Trace t{TraceOp::read(blockOn(cfg.proto, 0)),
            TraceOp::read(blockOn(cfg.proto, 0))};
    const RunResult r = sys.run(soloTrace(4, 1, t));
    // The second read hits in the processor cache: one extra cycle.
    EXPECT_NEAR(static_cast<double>(r.execTicks), 419.0, 6.0);
    EXPECT_EQ(r.reads, 1u);
}

TEST(Protocol, WriteMissGetsExclusive)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    Trace t{TraceOp::write(a)};
    sys.run(soloTrace(4, 1, t));
    EXPECT_EQ(sys.cache(1).lineState(sys.blockOf(a)),
              LineState::Modified);
    EXPECT_EQ(sys.directory(0).ownerOf(sys.blockOf(a)), 1);
    EXPECT_EQ(sys.directory(0).blockState(sys.blockOf(a)),
              DirState::Excl);
}

TEST(Protocol, ReadSharersAccumulateInDirectory)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::read(a)};
    ts[2] = {TraceOp::read(a)};
    ts[3] = {TraceOp::read(a)};
    sys.run(ts);
    const BlockId blk = sys.blockOf(a);
    EXPECT_EQ(sys.directory(0).blockState(blk), DirState::Shared);
    const NodeSet sharers = sys.directory(0).sharersOf(blk);
    EXPECT_TRUE(sharers.contains(1));
    EXPECT_TRUE(sharers.contains(2));
    EXPECT_TRUE(sharers.contains(3));
}

TEST(Protocol, WriteInvalidatesAllSharers)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::read(a), TraceOp::barrier()};
    ts[2] = {TraceOp::read(a), TraceOp::barrier()};
    ts[3] = {TraceOp::barrier(), TraceOp::write(a)};
    ts[0] = {TraceOp::barrier()};
    sys.run(ts);
    const BlockId blk = sys.blockOf(a);
    EXPECT_EQ(sys.cache(1).lineState(blk), LineState::Invalid);
    EXPECT_EQ(sys.cache(2).lineState(blk), LineState::Invalid);
    EXPECT_EQ(sys.cache(3).lineState(blk), LineState::Modified);
    EXPECT_EQ(sys.directory(0).ownerOf(blk), 3);
}

TEST(Protocol, UpgradeFromSoleSharerNeedsNoData)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    // Read then write: the write is an upgrade.
    Trace t{TraceOp::read(a), TraceOp::write(a)};
    const RunResult r = sys.run(soloTrace(4, 1, t));
    EXPECT_EQ(sys.cache(1).lineState(sys.blockOf(a)),
              LineState::Modified);
    // Upgrade round trip is two control hops + dir lookup: cheaper
    // than a full data miss.
    EXPECT_LT(r.execTicks, 418 + 418);
}

TEST(Protocol, ReadFromExclusiveForcesWriteback)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::write(a), TraceOp::barrier()};
    ts[2] = {TraceOp::barrier(), TraceOp::read(a)};
    ts[0] = {TraceOp::barrier()};
    ts[3] = {TraceOp::barrier()};
    sys.run(ts);
    const BlockId blk = sys.blockOf(a);
    // Figure 1 right: the writer is invalidated and the reader gets
    // a shared copy; the directory ends in Shared{2}.
    EXPECT_EQ(sys.cache(1).lineState(blk), LineState::Invalid);
    EXPECT_EQ(sys.cache(2).lineState(blk), LineState::Shared);
    EXPECT_EQ(sys.directory(0).blockState(blk), DirState::Shared);
    EXPECT_TRUE(sys.directory(0).sharersOf(blk).contains(2));
    EXPECT_FALSE(sys.directory(0).sharersOf(blk).contains(1));
}

TEST(Protocol, ThreeHopReadIsSlowerThanTwoHop)
{
    DsmConfig cfg = smallConfig();
    Tick two_hop = 0, three_hop = 0;
    {
        DsmSystem sys(cfg);
        two_hop = sys.run(soloTrace(4, 2,
                                    Trace{TraceOp::read(
                                        blockOn(cfg.proto, 0))}))
                      .execTicks;
    }
    {
        DsmSystem sys(cfg);
        const Addr a = blockOn(cfg.proto, 0);
        std::vector<Trace> ts(4);
        ts[1] = {TraceOp::write(a), TraceOp::barrier()};
        ts[2] = {TraceOp::barrier(), TraceOp::read(a)};
        ts[0] = {TraceOp::barrier()};
        ts[3] = {TraceOp::barrier()};
        const RunResult r = sys.run(ts);
        three_hop = r.execTicks;
    }
    EXPECT_GT(three_hop, two_hop);
}

TEST(Protocol, MigratoryHandoffConverges)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    // Three processors pass the block around with ample spacing.
    std::vector<Trace> ts(4);
    for (int round = 0; round < 6; ++round) {
        const NodeId q = NodeId(1 + round % 3);
        ts[q].push_back(TraceOp::read(a));
        ts[q].push_back(TraceOp::write(a));
        for (unsigned n = 0; n < 4; ++n)
            ts[n].push_back(TraceOp::barrier());
    }
    sys.run(ts);
    const BlockId blk = sys.blockOf(a);
    EXPECT_EQ(sys.directory(0).ownerOf(blk), 3); // last in rotation
    EXPECT_EQ(sys.cache(3).lineState(blk), LineState::Modified);
}

TEST(Protocol, ConcurrentWritersSerialize)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    for (unsigned q = 0; q < 4; ++q)
        ts[q] = {TraceOp::write(a)};
    const RunResult r = sys.run(ts);
    // All four writes complete; exactly one final owner.
    EXPECT_EQ(r.writes, 4u);
    const BlockId blk = sys.blockOf(a);
    const NodeId owner = sys.directory(0).ownerOf(blk);
    ASSERT_NE(owner, invalidNode);
    int modified = 0;
    for (NodeId q = 0; q < 4; ++q)
        modified +=
            sys.cache(q).lineState(blk) == LineState::Modified;
    EXPECT_EQ(modified, 1);
    EXPECT_EQ(sys.cache(owner).lineState(blk), LineState::Modified);
}

TEST(Protocol, UpgradeRaceFallsBackToFullWrite)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    // Both read (becoming sharers), then both upgrade concurrently:
    // the loser's copy is invalidated mid-flight and its upgrade is
    // converted to a full write by the directory.
    ts[1] = {TraceOp::read(a), TraceOp::barrier(), TraceOp::write(a)};
    ts[2] = {TraceOp::read(a), TraceOp::barrier(), TraceOp::write(a)};
    ts[0] = {TraceOp::barrier()};
    ts[3] = {TraceOp::barrier()};
    const RunResult r = sys.run(ts);
    EXPECT_EQ(r.writes, 2u);
    const BlockId blk = sys.blockOf(a);
    const NodeId owner = sys.directory(0).ownerOf(blk);
    ASSERT_NE(owner, invalidNode);
    EXPECT_EQ(sys.cache(owner).lineState(blk), LineState::Modified);
    const NodeId loser = owner == 1 ? 2 : 1;
    EXPECT_EQ(sys.cache(loser).lineState(blk), LineState::Invalid);
}

TEST(Protocol, RequestWaitOnlyCountsRemoteWork)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    // Node 1 only touches its own home memory: no remote waiting.
    Trace t;
    for (unsigned i = 0; i < 8; ++i)
        t.push_back(TraceOp::read(blockOn(cfg.proto, 1, i)));
    const RunResult r = sys.run(soloTrace(4, 1, t));
    EXPECT_DOUBLE_EQ(r.avgRequestWait, 0.0);
    EXPECT_GT(r.avgMemWait, 0.0);
}

TEST(Protocol, BarrierSynchronizesAllProcessors)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    std::vector<Trace> ts(4);
    // One processor computes for long; everyone meets at the barrier.
    ts[0] = {TraceOp::compute(10000), TraceOp::barrier()};
    for (unsigned q = 1; q < 4; ++q)
        ts[q] = {TraceOp::barrier()};
    const RunResult r = sys.run(ts);
    EXPECT_GE(r.execTicks, 10000u);
    EXPECT_EQ(r.barrierEpisodes, 1u);
}
