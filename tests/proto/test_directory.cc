/** @file Directory-level behaviours: observation hooks, request
 * counting, transaction serialization. */

#include <gtest/gtest.h>

#include "testutil.hh"

using namespace mspdsm;
using namespace mspdsm::test;

namespace
{

DsmConfig
observedConfig(unsigned nodes = 4)
{
    DsmConfig cfg = smallConfig(nodes);
    cfg.observers = {{PredKind::Cosmos, 1},
                     {PredKind::Msp, 1},
                     {PredKind::Vmsp, 1}};
    return cfg;
}

} // namespace

TEST(Directory, CountsRequestsByType)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    Trace t{TraceOp::read(a), TraceOp::write(a)};
    sys.run(soloTrace(4, 1, t));
    EXPECT_EQ(sys.directory(0).stats().reqGetS.value(), 1u);
    EXPECT_EQ(sys.directory(0).stats().reqUpgrade.value(), 1u);
    EXPECT_EQ(sys.directory(0).stats().reqGetX.value(), 0u);
}

TEST(Directory, ObserversSeeRequestStream)
{
    DsmConfig cfg = observedConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    Trace t{TraceOp::read(a), TraceOp::write(a)};
    const RunResult r = sys.run(soloTrace(4, 1, t));
    ASSERT_EQ(r.observers.size(), 3u);
    // MSP and VMSP observe the 2 requests.
    EXPECT_EQ(r.observers[1].stats.observed.value(), 2u);
    EXPECT_EQ(r.observers[2].stats.observed.value(), 2u);
    // Cosmos sees the same messages here (no acks were generated:
    // sole-sharer upgrade).
    EXPECT_EQ(r.observers[0].stats.observed.value(), 2u);
}

TEST(Directory, CosmosSeesAcksToo)
{
    DsmConfig cfg = observedConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::read(a), TraceOp::barrier()};
    ts[2] = {TraceOp::read(a), TraceOp::barrier()};
    ts[3] = {TraceOp::barrier(), TraceOp::write(a)};
    ts[0] = {TraceOp::barrier()};
    const RunResult r = sys.run(ts);
    // 2 reads + 1 write + 2 invalidation acks = 5 for Cosmos,
    // 3 requests for MSP/VMSP.
    EXPECT_EQ(r.observers[0].stats.observed.value(), 5u);
    EXPECT_EQ(r.observers[1].stats.observed.value(), 3u);
    EXPECT_EQ(r.observers[2].stats.observed.value(), 3u);
}

TEST(Directory, WritebacksObservedByCosmosOnly)
{
    DsmConfig cfg = observedConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::write(a), TraceOp::barrier()};
    ts[2] = {TraceOp::barrier(), TraceOp::read(a)};
    ts[0] = {TraceOp::barrier()};
    ts[3] = {TraceOp::barrier()};
    const RunResult r = sys.run(ts);
    // Cosmos: GetX + GetS + WriteBack = 3; requests only = 2.
    EXPECT_EQ(r.observers[0].stats.observed.value(), 3u);
    EXPECT_EQ(r.observers[1].stats.observed.value(), 2u);
}

TEST(Directory, HomeAssignmentIsPageInterleaved)
{
    ProtoConfig proto;
    const unsigned bpp = proto.blocksPerPage();
    EXPECT_EQ(proto.homeOf(0), 0);
    EXPECT_EQ(proto.homeOf(bpp - 1), 0);
    EXPECT_EQ(proto.homeOf(bpp), 1);
    EXPECT_EQ(proto.homeOf(static_cast<BlockId>(bpp) * 16), 0);
}

TEST(Directory, DeferredRequestsAllComplete)
{
    // Hammer one block from every node simultaneously, mixing reads
    // and writes: the per-block transaction serialization must not
    // lose or deadlock any request.
    DsmConfig cfg = smallConfig(8);
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(8);
    for (unsigned q = 0; q < 8; ++q) {
        for (int i = 0; i < 10; ++i) {
            if ((q + i) % 3 == 0)
                ts[q].push_back(TraceOp::write(a));
            else
                ts[q].push_back(TraceOp::read(a));
            ts[q].push_back(TraceOp::compute(30 + 7 * q));
        }
    }
    const RunResult r = sys.run(ts);
    EXPECT_GT(r.reads + r.writes, 0u);
    // run() panics internally on deadlock; reaching here is the test.
}

TEST(Directory, SoleUpgradeGeneratesNoInvals)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    Trace t{TraceOp::read(a), TraceOp::write(a)};
    sys.run(soloTrace(4, 1, t));
    EXPECT_EQ(sys.directory(0).stats().invals.value(), 0u);
    EXPECT_EQ(sys.directory(0).stats().recalls.value(), 0u);
}

TEST(Directory, WriteToSharedSendsInvalPerSharer)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::read(a), TraceOp::barrier()};
    ts[2] = {TraceOp::read(a), TraceOp::barrier()};
    ts[3] = {TraceOp::read(a), TraceOp::barrier(), TraceOp::write(a)};
    ts[0] = {TraceOp::barrier()};
    sys.run(ts);
    // Upgrade by 3 invalidates sharers 1 and 2 (not itself).
    EXPECT_EQ(sys.directory(0).stats().invals.value(), 2u);
}

/**
 * A directory hosting an adopted shard holds blocks of two homes whose
 * local indices overlap: state must be keyed by (home, local index),
 * never by the local index alone. Adopt blocks of homes 1 and 2 at
 * the very local index of a live block of the directory's own home 0,
 * and check every entry answers for itself.
 */
TEST(Directory, AdoptedBlockNeverAliasesOwnBlockAtSameLocalIndex)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0, 3);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::read(a)};
    ts[2] = {TraceOp::read(a)};
    sys.run(ts);

    const AddrMap map(cfg.proto);
    const BlockId own = sys.blockOf(a);
    ASSERT_EQ(map.geometricHomeOf(own), 0);
    Directory &dir = sys.directory(0);
    ASSERT_EQ(dir.blockState(own), DirState::Shared);

    const std::uint64_t local = map.shardSlotOf(own).local;
    const BlockId excl = map.blockAt(1, local);
    const BlockId shared = map.blockAt(2, local);
    dir.adopt(excl, 3, true);
    dir.adopt(shared, 1, false);
    dir.adopt(shared, 3, false);

    EXPECT_EQ(dir.blockState(own), DirState::Shared);
    EXPECT_EQ(dir.ownerOf(own), invalidNode);
    EXPECT_TRUE(dir.sharersOf(own).contains(1));
    EXPECT_TRUE(dir.sharersOf(own).contains(2));
    EXPECT_FALSE(dir.sharersOf(own).contains(3));

    EXPECT_EQ(dir.blockState(excl), DirState::Excl);
    EXPECT_EQ(dir.ownerOf(excl), 3);
    EXPECT_TRUE(dir.sharersOf(excl).empty());

    EXPECT_EQ(dir.blockState(shared), DirState::Shared);
    EXPECT_EQ(dir.ownerOf(shared), invalidNode);
    EXPECT_TRUE(dir.sharersOf(shared).contains(1));
    EXPECT_TRUE(dir.sharersOf(shared).contains(3));
    EXPECT_FALSE(dir.sharersOf(shared).contains(2));

    // Releasing the adopted shard of home 1 leaves the others alone.
    dir.releaseShard(1);
    EXPECT_EQ(dir.blockState(excl), DirState::Idle);
    EXPECT_EQ(dir.blockState(own), DirState::Shared);
    EXPECT_EQ(dir.blockState(shared), DirState::Shared);
}
