/** @file Unit tests for the interconnect model. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/network.hh"
#include "testutil.hh"

using namespace mspdsm;

namespace
{

struct NetFixture : ::testing::Test
{
    NetFixture()
    {
        cfg.numNodes = 4;
        cfg.netJitter = 0; // deterministic latency unless overridden
    }

    void
    build()
    {
        net = std::make_unique<Network>(eq, cfg, Rng(1));
        for (NodeId n = 0; n < cfg.numNodes; ++n)
            net->attach(n, &NetFixture::record, this);
    }

    /** Raw delivery sink recording every arrival. */
    static void
    record(void *ctx, const CohMsg &m)
    {
        auto *self = static_cast<NetFixture *>(ctx);
        self->arrivals.push_back({self->eq.curTick(), m.dst, m});
    }

    CohMsg
    msg(MsgType t, NodeId src, NodeId dst, BlockId blk = 0)
    {
        CohMsg m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.blk = blk;
        return m;
    }

    struct Arrival
    {
        Tick when;
        NodeId at;
        CohMsg m;
    };

    EventQueue eq;
    ProtoConfig cfg;
    std::unique_ptr<Network> net;
    std::vector<Arrival> arrivals;
};

} // namespace

TEST_F(NetFixture, ControlMessageLatency)
{
    build();
    net->send(msg(MsgType::GetS, 0, 1));
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(arrivals.size(), 1u);
    // egress occupancy + flight + ingress occupancy
    EXPECT_EQ(arrivals[0].when,
              cfg.niControl + cfg.netLatency + cfg.niControl);
}

TEST_F(NetFixture, DataMessagesAreSlower)
{
    build();
    net->send(msg(MsgType::DataShared, 0, 1));
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0].when,
              cfg.niData + cfg.netLatency + cfg.niData);
}

TEST_F(NetFixture, PaperRoundTripIs418)
{
    // GetS out, directory lookup + memory, DataShared back: the
    // calibration of ProtoConfig must reproduce the paper's 418-cycle
    // round-trip miss latency.
    const Tick request = cfg.niControl + cfg.netLatency + cfg.niControl;
    const Tick home = cfg.dirLookup + cfg.memAccess;
    const Tick reply = cfg.niData + cfg.netLatency + cfg.niData;
    EXPECT_EQ(request + home + reply, 418u);
}

TEST_F(NetFixture, LocalDeliveryBypassesNis)
{
    build();
    net->send(msg(MsgType::GetS, 2, 2));
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0].when, 1u);
}

TEST_F(NetFixture, EgressSerializesSameSource)
{
    build();
    net->send(msg(MsgType::GetS, 0, 1));
    net->send(msg(MsgType::GetS, 0, 2));
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(arrivals.size(), 2u);
    // Second message leaves one occupancy later.
    EXPECT_EQ(arrivals[1].when - arrivals[0].when, cfg.niControl);
}

TEST_F(NetFixture, IngressSerializesSameDestination)
{
    build();
    net->send(msg(MsgType::GetS, 0, 3));
    net->send(msg(MsgType::GetS, 1, 3));
    net->send(msg(MsgType::GetS, 2, 3));
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_GE(arrivals[1].when - arrivals[0].when, cfg.niControl);
    EXPECT_GE(arrivals[2].when - arrivals[1].when, cfg.niControl);
}

TEST_F(NetFixture, QueueingCyclesAccumulate)
{
    build();
    for (int i = 0; i < 4; ++i)
        net->send(msg(MsgType::GetS, 0, 1));
    EXPECT_TRUE(eq.run());
    EXPECT_GT(net->queueingCycles(), 0u);
    EXPECT_EQ(net->messagesSent(), 4u);
}

TEST_F(NetFixture, PairOrderIsPreserved)
{
    // Even with jitter, two messages between the same endpoints must
    // never re-order (the protocol depends on it).
    cfg.netJitter = 60;
    build();
    for (int i = 0; i < 50; ++i) {
        CohMsg m = msg(i % 2 ? MsgType::Inval : MsgType::DataShared,
                       0, 1, BlockId(i));
        net->send(m);
    }
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(arrivals.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(arrivals[i].m.blk, BlockId(i));
}

TEST_F(NetFixture, JitterCanReorderAcrossSources)
{
    // Two messages from different sources to one destination,
    // injected one tick apart, should sometimes swap under jitter --
    // this is the ack-race effect Section 3 of the paper hinges on.
    cfg.netJitter = 60;
    int swapped = 0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
        EventQueue q;
        Network n(q, cfg, Rng(1000 + t));
        std::vector<NodeId> order;
        const auto push_src = +[](void *ctx, const CohMsg &m) {
            static_cast<std::vector<NodeId> *>(ctx)->push_back(m.src);
        };
        for (NodeId id = 0; id < cfg.numNodes; ++id)
            n.attach(id, push_src, &order);
        CohMsg a = msg(MsgType::InvAck, 1, 0);
        CohMsg b = msg(MsgType::InvAck, 2, 0);
        n.send(a);
        test::At sendB([&n, b] { n.send(b); });
        q.schedule(1, sendB);
        EXPECT_TRUE(q.run());
        ASSERT_EQ(order.size(), 2u);
        if (order[0] == 2)
            ++swapped;
    }
    EXPECT_GT(swapped, 5);
    EXPECT_LT(swapped, trials - 5);
}

TEST_F(NetFixture, ZeroJitterIsDeterministicallyOrdered)
{
    cfg.netJitter = 0;
    for (int t = 0; t < 10; ++t) {
        EventQueue q;
        Network n(q, cfg, Rng(2000 + t));
        std::vector<NodeId> order;
        const auto push_src = +[](void *ctx, const CohMsg &m) {
            static_cast<std::vector<NodeId> *>(ctx)->push_back(m.src);
        };
        for (NodeId id = 0; id < cfg.numNodes; ++id)
            n.attach(id, push_src, &order);
        n.send(msg(MsgType::InvAck, 1, 0));
        n.send(msg(MsgType::InvAck, 2, 0));
        EXPECT_TRUE(q.run());
        ASSERT_EQ(order.size(), 2u);
        EXPECT_EQ(order[0], 1);
        EXPECT_EQ(order[1], 2);
    }
}
