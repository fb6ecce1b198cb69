/** @file Speculation verification plumbing (paper Section 4.2): the
 * reference bit travels from the consumer's cache to the home, feeds
 * the predictor, and removes misspeculated sequences. */

#include <gtest/gtest.h>

#include "testutil.hh"

using namespace mspdsm;
using namespace mspdsm::test;

namespace
{

DsmConfig
frConfig()
{
    DsmConfig cfg = smallConfig(8);
    cfg.pred = PredKind::Vmsp;
    cfg.historyDepth = 1;
    cfg.spec = SpecMode::FirstRead;
    return cfg;
}

} // namespace

TEST(Verification, UsedCopiesAreCountedUsed)
{
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
        ts[3].push_back(TraceOp::compute(900));
        ts[3].push_back(TraceOp::read(a));
    }
    const RunResult r = sys.run(ts);
    EXPECT_GT(r.specServedFr, 0u);
    EXPECT_EQ(r.specMissFr, 0u);
}

TEST(Verification, StalePredictionIsRemovedAfterMiss)
{
    // Train {2,3}, then 3 leaves. The first write after a missed
    // push verifies the unreferenced copy and erases the entry, so
    // later rounds stop pushing to 3.
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(8);
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
    for (int i = 0; i < 6; ++i)
        round(true);
    for (int i = 0; i < 10; ++i)
        round(false);
    const RunResult r = sys.run(ts);
    // Misses happen but are bounded: after the erase the predictor
    // must relearn from scratch, not keep pushing to the stale set.
    EXPECT_GT(r.specMissFr, 0u);
    EXPECT_LE(r.specMissFr, 4u);
}

TEST(Verification, MigratoryUpgradeVerifiesInPlace)
{
    // A consumer that reads its pushed copy and then upgrades it
    // reports the reference on the upgrade itself (no invalidation
    // needed): the push must be verified used, not leaked.
    DsmConfig cfg = frConfig();
    cfg.spec = SpecMode::SwiFirstRead;
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 1, 0);
    const Addr b = blockOn(cfg.proto, 1, 1);
    std::vector<Trace> ts(8);
    for (int r = 0; r < 12; ++r) {
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        for (int j = 0; j < 2; ++j) {
            const NodeId q = NodeId(2 + j);
            ts[q].push_back(TraceOp::compute(1 + 3200 * j));
            ts[q].push_back(TraceOp::read(a));
            ts[q].push_back(TraceOp::write(a));
            ts[q].push_back(TraceOp::compute(20));
            ts[q].push_back(TraceOp::read(b));
            ts[q].push_back(TraceOp::write(b));
        }
    }
    const RunResult r = sys.run(ts);
    EXPECT_GT(r.specServedSwi, 0u);
    // Served copies must not be double-counted as misses when the
    // consumer's own upgrade invalidates them.
    EXPECT_EQ(r.specMissSwi, 0u);
}

TEST(Verification, DroppedCopiesAreNotMisses)
{
    // Simultaneous readers: the push for the second races its demand
    // read and is dropped; that must not count as a misspeculation
    // (the prediction was right).
    DsmConfig cfg = frConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(8);
    for (int r = 0; r < 12; ++r) {
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[1].push_back(TraceOp::write(a));
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[2].push_back(TraceOp::read(a));
        ts[3].push_back(TraceOp::read(a)); // no stagger
    }
    const RunResult r = sys.run(ts);
    EXPECT_GT(r.specDropped, 0u);
    EXPECT_EQ(r.specMissFr, 0u);
}

TEST(Verification, SpecCopiesNeverOutliveInvalidation)
{
    // After every write transaction, no cache may retain a valid
    // copy other than the writer's: pushes must be invalidated like
    // ordinary sharers.
    DsmConfig cfg = frConfig();
    cfg.spec = SpecMode::SwiFirstRead;
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 1, 0);
    const Addr b = blockOn(cfg.proto, 1, 1);
    std::vector<Trace> ts(8);
    for (int r = 0; r < 8; ++r) {
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[1].push_back(TraceOp::write(a));
        ts[1].push_back(TraceOp::write(b));
        for (unsigned q = 0; q < 8; ++q)
            ts[q].push_back(TraceOp::barrier());
        ts[2].push_back(TraceOp::read(a));
        ts[3].push_back(TraceOp::compute(900));
        ts[3].push_back(TraceOp::read(a));
    }
    // End on a write so the final state is exclusive.
    for (unsigned q = 0; q < 8; ++q)
        ts[q].push_back(TraceOp::barrier());
    ts[1].push_back(TraceOp::write(a));
    sys.run(ts);
    const BlockId blk = sys.blockOf(a);
    for (NodeId q = 0; q < 8; ++q) {
        if (q == 1)
            continue;
        EXPECT_EQ(sys.cache(q).lineState(blk), LineState::Invalid)
            << "node " << q;
    }
    EXPECT_EQ(sys.cache(1).lineState(blk), LineState::Modified);
}
