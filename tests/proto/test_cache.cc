/** @file Cache-controller unit tests: line states, hit latencies,
 * piggy-backed flags, speculative installs and drops. Accesses name
 * blocks directly, as the processor does. */

#include <gtest/gtest.h>

#include <vector>

#include "dsm/cache.hh"
#include "net/network.hh"

using namespace mspdsm;

namespace
{

/**
 * Drives one CacheCtrl directly, capturing everything it sends and
 * letting the test play the directory's role.
 */
struct CacheFixture : ::testing::Test
{
    CacheFixture()
    {
        cfg.numNodes = 4;
        cfg.netJitter = 0;
        net = std::make_unique<Network>(eq, cfg, Rng(1));
        cache = std::make_unique<CacheCtrl>(1, eq, *net, cfg);
        for (NodeId n = 0; n < 4; ++n)
            net->attach(n, &CacheFixture::route, this);
    }

    /** Raw sink: node 1 is the cache under test, the rest a catcher. */
    static void
    route(void *ctx, const CohMsg &m)
    {
        auto *self = static_cast<CacheFixture *>(ctx);
        if (m.dst == 1)
            self->cache->handle(m);
        else
            self->outbox.push_back(m);
    }

    /** Run the event queue dry. */
    void
    settle()
    {
        ASSERT_TRUE(eq.run());
    }

    /** Deliver a message to the cache as if from node 0 (the home). */
    void
    deliver(MsgType t, BlockId blk, SpecTrigger trig = SpecTrigger::None)
    {
        CohMsg m;
        m.type = t;
        m.src = 0;
        m.dst = 1;
        m.blk = blk;
        m.trigger = trig;
        net->send(m);
    }

    EventQueue eq;
    ProtoConfig cfg;
    std::unique_ptr<Network> net;
    std::unique_ptr<CacheCtrl> cache;
    std::vector<CohMsg> outbox;
    int completions = 0;
    bool lastRemote = false;

    /** Intrusive completion counting into the fixture. */
    struct CountingCompletion final : MemCompletion
    {
        explicit CountingCompletion(CacheFixture *f)
            : MemCompletion(&CountingCompletion::fired), fix(f)
        {}

        static void
        fired(MemCompletion &self, bool remote)
        {
            auto &c = static_cast<CountingCompletion &>(self);
            ++c.fix->completions;
            c.fix->lastRemote = remote;
        }

        CacheFixture *fix;
    };

    CountingCompletion completion{this};

    /** The blocking processor's one outstanding completion record. */
    CountingCompletion &done() { return completion; }
};

} // namespace

TEST_F(CacheFixture, ReadMissSendsGetS)
{
    EXPECT_EQ(cache->access(0, false, done()), 0u); // a miss: no latency
    settle();
    ASSERT_EQ(outbox.size(), 1u);
    EXPECT_EQ(outbox[0].type, MsgType::GetS);
    EXPECT_EQ(outbox[0].dst, 0); // home of block 0
    EXPECT_FALSE(outbox[0].hadCopy);
    EXPECT_EQ(completions, 0); // still blocked
    EXPECT_EQ(cache->stats().demandReads.value(), 1u);
}

TEST_F(CacheFixture, FillCompletesAccessAndInstallsShared)
{
    cache->access(0, false, done());
    settle();
    CohMsg fill;
    fill.type = MsgType::DataShared;
    fill.src = 0;
    fill.dst = 1;
    fill.blk = 0;
    fill.remoteWork = true;
    net->send(fill);
    settle();
    EXPECT_EQ(completions, 1);
    EXPECT_TRUE(lastRemote);
    EXPECT_EQ(cache->lineState(0), LineState::Shared);
}

TEST_F(CacheFixture, WriteMissSendsGetX)
{
    EXPECT_EQ(cache->access(0, true, done()), 0u);
    settle();
    ASSERT_EQ(outbox.size(), 1u);
    EXPECT_EQ(outbox[0].type, MsgType::GetX);
    EXPECT_EQ(cache->stats().demandWrites.value(), 1u);
}

TEST_F(CacheFixture, WriteToSharedSendsUpgradeWithFlags)
{
    cache->access(0, false, done());
    settle();
    deliver(MsgType::DataShared, 0);
    settle();
    cache->access(0, true, done());
    settle();
    ASSERT_EQ(outbox.size(), 2u);
    EXPECT_EQ(outbox[1].type, MsgType::Upgrade);
    EXPECT_TRUE(outbox[1].hadCopy);
    EXPECT_FALSE(outbox[1].copyWasSpec);
    EXPECT_TRUE(outbox[1].copyReferenced);
}

TEST_F(CacheFixture, HitsAreLocalAndFast)
{
    cache->access(0, false, done());
    settle();
    deliver(MsgType::DataShared, 0);
    settle();
    const std::size_t msgs = outbox.size();
    // Processor-cache hit: one cycle, returned to the caller, which
    // resumes itself -- the completion record is not used.
    EXPECT_EQ(cache->access(0, false, done()), cfg.cacheHit);
    settle();
    EXPECT_EQ(completions, 1); // the fill only
    EXPECT_EQ(outbox.size(), msgs); // served locally: no traffic
    EXPECT_EQ(cache->stats().readHits.value(), 1u);
}

TEST_F(CacheFixture, InvalAcksWithPiggybackAndInvalidates)
{
    cache->access(0, false, done());
    settle();
    deliver(MsgType::DataShared, 0);
    settle();
    deliver(MsgType::Inval, 0);
    settle();
    EXPECT_EQ(cache->lineState(0), LineState::Invalid);
    ASSERT_EQ(outbox.size(), 2u);
    EXPECT_EQ(outbox[1].type, MsgType::InvAck);
    EXPECT_TRUE(outbox[1].hadCopy);
    EXPECT_TRUE(outbox[1].copyReferenced);
}

TEST_F(CacheFixture, RecallWritesBackAndInvalidates)
{
    cache->access(0, true, done());
    settle();
    deliver(MsgType::DataExcl, 0);
    settle();
    EXPECT_EQ(cache->lineState(0), LineState::Modified);
    deliver(MsgType::Recall, 0);
    settle();
    EXPECT_EQ(cache->lineState(0), LineState::Invalid);
    ASSERT_EQ(outbox.size(), 2u);
    EXPECT_EQ(outbox[1].type, MsgType::WriteBack);
}

TEST_F(CacheFixture, SpecDataInstallsUnreferencedSpecLine)
{
    deliver(MsgType::SpecData, 0, SpecTrigger::Swi);
    settle();
    EXPECT_EQ(cache->lineState(0), LineState::Shared);
    EXPECT_TRUE(cache->hasUnreferencedSpec(0));
}

TEST_F(CacheFixture, SpecHitCountsByTriggerAndCostsLocalAccess)
{
    deliver(MsgType::SpecData, 0, SpecTrigger::Swi);
    settle();
    // First touch of a pushed copy: remote-cache access (104), a
    // local hit, so no request leaves the node and nothing completes
    // through the record.
    EXPECT_EQ(cache->access(0, false, done()), cfg.memAccess);
    settle();
    EXPECT_EQ(completions, 0);
    EXPECT_TRUE(outbox.empty());
    EXPECT_EQ(cache->stats().specServedSwi.value(), 1u);
    EXPECT_FALSE(cache->hasUnreferencedSpec(0));
}

TEST_F(CacheFixture, SpecDataDroppedWhenDemandInFlight)
{
    cache->access(0, false, done());
    settle();
    deliver(MsgType::SpecData, 0, SpecTrigger::FirstRead);
    settle();
    EXPECT_EQ(cache->stats().specDropped.value(), 1u);
    // The demand fill still completes normally afterwards.
    deliver(MsgType::DataShared, 0);
    settle();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(cache->lineState(0), LineState::Shared);
    EXPECT_FALSE(cache->hasUnreferencedSpec(0));
}

TEST_F(CacheFixture, SpecDataDroppedWhenCopyPresent)
{
    cache->access(0, false, done());
    settle();
    deliver(MsgType::DataShared, 0);
    settle();
    deliver(MsgType::SpecData, 0, SpecTrigger::FirstRead);
    settle();
    EXPECT_EQ(cache->stats().specDropped.value(), 1u);
    EXPECT_FALSE(cache->hasUnreferencedSpec(0));
}

TEST_F(CacheFixture, UnreferencedSpecAckReportsUnreferenced)
{
    deliver(MsgType::SpecData, 0, SpecTrigger::Swi);
    settle();
    deliver(MsgType::Inval, 0);
    settle();
    ASSERT_EQ(outbox.size(), 1u);
    EXPECT_EQ(outbox[0].type, MsgType::InvAck);
    EXPECT_TRUE(outbox[0].copyWasSpec);
    EXPECT_FALSE(outbox[0].copyReferenced);
}

TEST_F(CacheFixture, ReferencedSpecAckReportsReferenced)
{
    deliver(MsgType::SpecData, 0, SpecTrigger::Swi);
    settle();
    EXPECT_EQ(cache->access(0, false, done()), cfg.memAccess);
    deliver(MsgType::Inval, 0);
    settle();
    ASSERT_EQ(outbox.size(), 1u);
    EXPECT_TRUE(outbox[0].copyWasSpec);
    EXPECT_TRUE(outbox[0].copyReferenced);
}

TEST_F(CacheFixture, InvalRacingFillConsumesButDoesNotKeep)
{
    cache->access(0, false, done());
    settle();
    deliver(MsgType::Inval, 0); // races the in-flight fill
    settle();
    ASSERT_EQ(outbox.size(), 2u);
    EXPECT_EQ(outbox[1].type, MsgType::InvAck);
    EXPECT_TRUE(outbox[1].copyReferenced); // demand access is the use
    deliver(MsgType::DataShared, 0);
    settle();
    EXPECT_EQ(completions, 1); // the blocked read completes...
    EXPECT_EQ(cache->lineState(0), LineState::Invalid); // ...copyless
}

TEST_F(CacheFixture, UpgradeConvertedToDataExclFill)
{
    cache->access(0, false, done());
    settle();
    deliver(MsgType::DataShared, 0);
    settle();
    cache->access(0, true, done());
    settle();
    // The directory decided a full transfer was needed.
    deliver(MsgType::DataExcl, 0);
    settle();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(cache->lineState(0), LineState::Modified);
}

TEST_F(CacheFixture, FillOfTheWrongKindIsStaleInFaultRuns)
{
    // After a kill and restart, a DataShared answering the dead
    // incarnation's read can arrive while the restarted node's write
    // miss on the same block is outstanding. It must not complete
    // that miss; only an exclusive grant can.
    cache->enableFaults();
    EXPECT_EQ(cache->access(0, true, done()), 0u); // write miss
    deliver(MsgType::DataShared, 0);
    ASSERT_FALSE(eq.run(eq.curTick() + 1000)); // retry timer pending
    EXPECT_EQ(cache->stats().staleFills.value(), 1u);
    EXPECT_EQ(completions, 0);
    EXPECT_TRUE(cache->missOutstanding());
    EXPECT_EQ(cache->lineState(0), LineState::Invalid);

    deliver(MsgType::DataExcl, 0);
    settle(); // the fill disarms the retry timer
    EXPECT_EQ(completions, 1);
    EXPECT_FALSE(cache->missOutstanding());
    EXPECT_EQ(cache->lineState(0), LineState::Modified);
    EXPECT_EQ(cache->stats().staleFills.value(), 1u);
    EXPECT_EQ(cache->stats().retries.value(), 0u);
}

using CacheFixtureDeathTest = CacheFixture;

TEST_F(CacheFixtureDeathTest, FillOfTheWrongKindPanicsWithoutFaults)
{
    // Without a fault plan no reply can outlive its miss, so a
    // mismatch is a protocol bug.
    cache->access(0, true, done());
    deliver(MsgType::DataShared, 0);
    EXPECT_DEATH(settle(), "unexpected fill");
}

TEST_F(CacheFixture, WriteHitOnModifiedIsSilent)
{
    cache->access(0, true, done());
    settle();
    deliver(MsgType::DataExcl, 0);
    settle();
    const std::size_t msgs = outbox.size();
    EXPECT_EQ(cache->access(0, true, done()), cfg.cacheHit);
    settle();
    EXPECT_EQ(outbox.size(), msgs); // no new traffic
    EXPECT_EQ(cache->stats().writeHits.value(), 1u);
}

TEST_F(CacheFixture, DistinctBlocksTrackIndependently)
{
    deliver(MsgType::SpecData, 3, SpecTrigger::FirstRead);
    settle();
    EXPECT_EQ(cache->lineState(3), LineState::Shared);
    EXPECT_EQ(cache->lineState(4), LineState::Invalid);
    EXPECT_EQ(cache->access(4, false, done()), 0u);
    settle();
    deliver(MsgType::DataShared, 4);
    settle();
    EXPECT_EQ(cache->lineState(4), LineState::Shared);
    EXPECT_TRUE(cache->hasUnreferencedSpec(3));
    EXPECT_FALSE(cache->hasUnreferencedSpec(4));
}
