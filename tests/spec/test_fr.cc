/** @file First-Read triggering: the first read of a predicted
 * sequence forwards the block to the remaining readers. */

#include <gtest/gtest.h>

#include "testutil.hh"

using namespace mspdsm;
using namespace mspdsm::test;

namespace
{

DsmConfig
frConfig(unsigned nodes = 8)
{
    DsmConfig cfg = smallConfig(nodes);
    cfg.pred = PredKind::Vmsp;
    cfg.historyDepth = 1;
    cfg.spec = SpecMode::FirstRead;
    return cfg;
}

/**
 * Producer/consumer rounds: node 1 writes, nodes 2..2+deg-1 read in
 * rank order with ample spacing.
 */
std::vector<Trace>
pcRounds(const ProtoConfig &proto, unsigned nodes, int rounds,
         int degree)
{
    const Addr a = blockOn(proto, 0);
    std::vector<Trace> ts(nodes);
    for (int r = 0; r < rounds; ++r) {
        for (unsigned q = 0; q < nodes; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[1].push_back(TraceOp::write(a));
        for (unsigned q = 0; q < nodes; ++q)
            ts[q].push_back(TraceOp::barrier());
        for (int k = 0; k < degree; ++k) {
            ts[2 + k].push_back(TraceOp::compute(1 + 800 * k));
            ts[2 + k].push_back(TraceOp::read(a));
        }
    }
    return ts;
}

} // namespace

TEST(FirstRead, PushesRestOfPredictedSequence)
{
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    const RunResult r = sys.run(pcRounds(cfg.proto, 8, 10, 3));
    // After the first round the vector {2,3,4} is known: each later
    // round's first read triggers pushes to the other two readers.
    EXPECT_GT(r.specSentFr, 10u);
    EXPECT_GT(r.specServedFr, 10u);
    EXPECT_EQ(r.specSentSwi, 0u); // SWI disabled in FR-DSM
    EXPECT_EQ(r.swiSent, 0u);
}

TEST(FirstRead, CoversAboutOneMinusOneOverDegree)
{
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    const int rounds = 30, degree = 3;
    const RunResult r =
        sys.run(pcRounds(cfg.proto, 8, rounds, degree));
    // Of each round's 3 reads, 2 can be served speculatively.
    const double covered = static_cast<double>(r.specServedFr) /
                           static_cast<double>(r.reads);
    EXPECT_GT(covered, 0.5);
    EXPECT_LT(covered, 0.72);
}

TEST(FirstRead, SingleReaderGainsNothing)
{
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    const RunResult r = sys.run(pcRounds(cfg.proto, 8, 10, 1));
    EXPECT_EQ(r.specSentFr, 0u);
    EXPECT_EQ(r.specServedFr, 0u);
}

TEST(FirstRead, ReducesExecutionTime)
{
    Tick base = 0, fr = 0;
    {
        DsmConfig cfg = frConfig();
        cfg.spec = SpecMode::None;
        DsmSystem sys(cfg);
        base = sys.run(pcRounds(cfg.proto, 8, 20, 4)).execTicks;
    }
    {
        DsmConfig cfg = frConfig();
        DsmSystem sys(cfg);
        fr = sys.run(pcRounds(cfg.proto, 8, 20, 4)).execTicks;
    }
    EXPECT_LT(fr, base);
}

TEST(FirstRead, SpeculativeCopyIsRealSharer)
{
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    sys.run(pcRounds(cfg.proto, 8, 5, 3));
    // At the end of the last round all three readers hold the block
    // and the directory tracks every copy (pushed or demanded).
    const BlockId blk = sys.blockOf(blockOn(cfg.proto, 0));
    const NodeSet sharers = sys.directory(0).sharersOf(blk);
    for (NodeId q = 2; q <= 4; ++q) {
        if (sys.cache(q).lineState(blk) != LineState::Invalid) {
            EXPECT_TRUE(sharers.contains(q));
        }
    }
}

TEST(FirstRead, MispredictedPushIsVerifiedAndRemoved)
{
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(8);
    // Train vector {2,3}; then reader 3 stops participating.
    auto round = [&](bool with3) {
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[1].push_back(TraceOp::write(a));
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[2].push_back(TraceOp::read(a));
        if (with3) {
            ts[3].push_back(TraceOp::compute(900));
            ts[3].push_back(TraceOp::read(a));
        }
    };
    for (int i = 0; i < 5; ++i)
        round(true);
    for (int i = 0; i < 5; ++i)
        round(false);
    const RunResult r = sys.run(ts);
    // Pushes to node 3 after it stopped reading are verified as
    // misses when the next write invalidates the unreferenced copy.
    EXPECT_GT(r.specMissFr, 0u);
    EXPECT_GT(r.specServedFr, 0u);
}

TEST(FirstRead, RacingPushIsDropped)
{
    // Two readers arrive nearly simultaneously: the push for the
    // second can race its own demand read and must be dropped, not
    // double-installed.
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(8);
    for (int r = 0; r < 10; ++r) {
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[1].push_back(TraceOp::write(a));
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[2].push_back(TraceOp::read(a));
        ts[3].push_back(TraceOp::read(a)); // no stagger: races
    }
    const RunResult r = sys.run(ts);
    EXPECT_GT(r.specDropped, 0u);
    // Dropped copies never count as served.
    EXPECT_LE(r.specServedFr, r.specSentFr);
}

TEST(FirstRead, NoSpeculationWithoutPrediction)
{
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    // Single cold round: nothing learned yet, nothing pushed.
    const RunResult r = sys.run(pcRounds(cfg.proto, 8, 1, 3));
    EXPECT_EQ(r.specSentFr, 0u);
}
