/** @file Differential test for the batched per-destination NI drain.
 *
 * The drain replaced the per-message two-stage (arrival event +
 * delivery event) transport with one self-rescheduling event per
 * destination that books the ingress NI in arrival order and batches
 * reservations. Its timing-equivalence argument (ARCHITECTURE.md,
 * "Batched NI drain") claims every message still departs, flies,
 * queues, and delivers at exactly the ticks the two-stage path
 * produced. This test checks that claim mechanically: randomized
 * cross-traffic -- every topology, with and without jitter, local and
 * remote, data and control -- is driven through the real Network and
 * through a reference reimplementation of the retired two-stage path
 * built from the same Topology/Rng/BoundedDraw pieces, and every
 * message must be delivered at the identical tick with per-(src,dst)
 * FIFO order intact, with identical NI and link queueing totals.
 *
 * The reference also counts *undercuts*: sends whose arrival precedes
 * every arrival already in flight to the same destination. Only the
 * real drain's earlier re-arm in pushIngress gets those delivered on
 * time, so the jittered and backlogged plans must contain some.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "net/network.hh"
#include "testutil.hh"
#include "topo/topology.hh"

using namespace mspdsm;

namespace
{

/** One observed delivery. */
struct Delivery
{
    Tick when;
    NodeId src;
    NodeId dst;
    BlockId id; //!< unique per message in the plan
};

/**
 * Reference transport: a faithful reimplementation of the retired
 * two-stage path. send performs the identical egress / link-walk /
 * jitter / pair-clamp arithmetic, then schedules an arrival event at
 * the arrival tick; the arrival stage reserves the ingress NI at
 * curTick and rides the same event to the delivery tick.
 */
class RefNet
{
  public:
    RefNet(EventQueue &eq, const ProtoConfig &cfg, Rng rng,
           std::vector<Delivery> &log)
        : eq_(eq), cfg_(cfg), rng_(rng), jitter_(0, cfg.netJitter),
          topo_(cfg), egressFree_(cfg.numNodes, 0),
          ingressFree_(cfg.numNodes, 0), linkFree_(topo_.numLinks(), 0),
          pairLast_(std::size_t{cfg.numNodes} * cfg.numNodes, 0),
          inFlight_(cfg.numNodes), log_(log)
    {
    }

    void
    send(const CohMsg &msg)
    {
        const Tick now = eq_.curTick();
        if (msg.src == msg.dst) {
            Ev &e = pool_.acquire(this);
            e.msg = msg;
            e.arrived = true;
            eq_.schedule(now + 1, e);
            return;
        }
        const Tick occ = carriesData(msg.type) ? cfg_.niData
                                               : cfg_.niControl;
        const Tick inject_start = std::max(now, egressFree_[msg.src]);
        queued_ += inject_start - now;
        const Tick departure = inject_start + occ;
        egressFree_[msg.src] = departure;

        const Topology::Route &rt = topo_.route(msg.src, msg.dst);
        Tick head = departure;
        if (rt.hops == 0) {
            head += rt.flight;
        } else {
            const LinkId *ls = topo_.links(rt);
            const Tick lat = topo_.linkLatency();
            for (std::uint16_t h = 0; h < rt.hops; ++h) {
                const Tick start = std::max(head, linkFree_[ls[h]]);
                linkQueued_ += start - head;
                linkFree_[ls[h]] = start + occ;
                head = start + lat;
            }
        }

        Tick arrival = head;
        if (cfg_.netJitter > 0)
            arrival += jitter_(rng_);
        const std::size_t pair = msg.src * cfg_.numNodes + msg.dst;
        if (arrival <= pairLast_[pair])
            arrival = pairLast_[pair] + 1;
        pairLast_[pair] = arrival;

        std::multiset<Tick> &pending = inFlight_[msg.dst];
        if (!pending.empty() && arrival < *pending.begin())
            ++undercuts_;
        pending.insert(arrival);

        Ev &e = pool_.acquire(this);
        e.msg = msg;
        e.occ = occ;
        e.arrived = false;
        eq_.schedule(arrival, e);
    }

    std::uint64_t queueing() const { return queued_; }
    std::uint64_t linkQueueing() const { return linkQueued_; }
    std::uint64_t undercuts() const { return undercuts_; }

  private:
    struct Ev final : public Event
    {
        explicit Ev(RefNet *n) : net(n) {}

        void process() override { net->fired(*this); }

        RefNet *net;
        CohMsg msg;
        Tick occ = 0;
        bool arrived = false;
    };

    void
    fired(Ev &e)
    {
        if (!e.arrived) {
            e.arrived = true;
            const Tick arrival = eq_.curTick();
            std::multiset<Tick> &pending = inFlight_[e.msg.dst];
            pending.erase(pending.find(arrival));
            const Tick start =
                std::max(arrival, ingressFree_[e.msg.dst]);
            queued_ += start - arrival;
            const Tick delivered = start + e.occ;
            ingressFree_[e.msg.dst] = delivered;
            eq_.schedule(delivered, e);
            return;
        }
        log_.push_back(Delivery{eq_.curTick(), e.msg.src, e.msg.dst,
                                e.msg.blk});
        pool_.release(e);
    }

    EventQueue &eq_;
    const ProtoConfig &cfg_;
    Rng rng_;
    BoundedDraw jitter_;
    Topology topo_;
    std::vector<Tick> egressFree_;
    std::vector<Tick> ingressFree_;
    std::vector<Tick> linkFree_;
    std::vector<Tick> pairLast_;
    //! Arrival ticks of the remote messages in flight, per destination.
    std::vector<std::multiset<Tick>> inFlight_;
    test::EventPool<Ev> pool_;
    std::uint64_t queued_ = 0;
    std::uint64_t linkQueued_ = 0;
    std::uint64_t undercuts_ = 0;
    std::vector<Delivery> &log_;
};

/** One planned injection. */
struct Send
{
    Tick when;
    CohMsg msg;
};

/**
 * Randomized cross-traffic: send ticks advance by bounded random
 * gaps (so sends overlap in-flight deliveries), endpoints and types
 * are uniform -- including src == dst locals and the wide data
 * occupancy -- and every message carries a unique id in blk.
 */
std::vector<Send>
makePlan(std::uint64_t seed, unsigned nodes, int count)
{
    Rng rng(seed);
    std::vector<Send> plan;
    Tick t = 0;
    for (int i = 0; i < count; ++i) {
        t += rng.uniform(0, 40);
        Send s;
        s.when = t;
        s.msg.src = static_cast<NodeId>(rng.uniform(0, nodes - 1));
        s.msg.dst = static_cast<NodeId>(rng.uniform(0, nodes - 1));
        static constexpr MsgType kinds[] = {
            MsgType::GetS, MsgType::Inval, MsgType::InvAck,
            MsgType::DataShared, MsgType::WriteBack};
        s.msg.type = kinds[rng.uniform(0, 4)];
        s.msg.blk = static_cast<BlockId>(i);
        plan.push_back(s);
    }
    return plan;
}

/** Replays a plan into a transport from inside event context. */
template <typename NetT>
struct Driver final : public Event
{
    void
    process() override
    {
        while (idx < plan->size() && (*plan)[idx].when == when())
            net->send((*plan)[idx++].msg);
        if (idx < plan->size())
            eq->schedule((*plan)[idx].when, *this);
    }

    EventQueue *eq = nullptr;
    NetT *net = nullptr;
    const std::vector<Send> *plan = nullptr;
    std::size_t idx = 0;
};

/** One transport's observable outcome for a plan. */
struct Outcome
{
    std::vector<Delivery> log;
    std::uint64_t queued = 0;     //!< NI queueing cycles
    std::uint64_t linkQueued = 0; //!< link queueing cycles
    std::uint64_t undercuts = 0;  //!< counted by the reference only
};

/** Run the plan through the real drain-based Network. */
Outcome
runReal(const ProtoConfig &cfg, std::uint64_t rngSeed,
        const std::vector<Send> &plan)
{
    EventQueue eq;
    Network net(eq, cfg, Rng(rngSeed));
    std::vector<Delivery> log;
    struct Ctx
    {
        EventQueue *eq;
        std::vector<Delivery> *log;
    } ctx{&eq, &log};
    const auto record = +[](void *c, const CohMsg &m) {
        auto *x = static_cast<Ctx *>(c);
        x->log->push_back(
            Delivery{x->eq->curTick(), m.src, m.dst, m.blk});
    };
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        net.attach(n, record, &ctx);

    Driver<Network> drv;
    drv.eq = &eq;
    drv.net = &net;
    drv.plan = &plan;
    if (!plan.empty())
        eq.schedule(plan.front().when, drv);
    EXPECT_TRUE(eq.run());
    return {log, net.queueingCycles(), net.linkQueueingCycles(), 0};
}

/** Run the plan through the reference two-stage transport. */
Outcome
runRef(const ProtoConfig &cfg, std::uint64_t rngSeed,
       const std::vector<Send> &plan)
{
    EventQueue eq;
    std::vector<Delivery> log;
    RefNet net(eq, cfg, Rng(rngSeed), log);

    Driver<RefNet> drv;
    drv.eq = &eq;
    drv.net = &net;
    drv.plan = &plan;
    if (!plan.empty())
        eq.schedule(plan.front().when, drv);
    EXPECT_TRUE(eq.run());
    return {log, net.queueing(), net.linkQueueing(), net.undercuts()};
}

/**
 * The equivalence oracle: identical delivery tick per message,
 * identical per-(src,dst) delivery order (== send order, the
 * protocol's point-to-point FIFO guarantee), identical contention
 * totals. Global cross-destination order at equal ticks is NOT
 * compared: per-destination drains legitimately interleave same-tick
 * deliveries to *different* nodes in a different (still legal) order
 * than per-message events did.
 *
 * @return the plan's undercut count (RefNet::undercuts())
 */
std::uint64_t
expectEquivalent(const ProtoConfig &cfg, std::uint64_t planSeed,
                 std::uint64_t rngSeed, int count)
{
    const auto plan = makePlan(planSeed, cfg.numNodes, count);
    const Outcome real = runReal(cfg, rngSeed, plan);
    const Outcome ref = runRef(cfg, rngSeed, plan);
    const std::vector<Delivery> &realLog = real.log;
    const std::vector<Delivery> &refLog = ref.log;

    EXPECT_EQ(realLog.size(), plan.size());
    EXPECT_EQ(refLog.size(), plan.size());
    EXPECT_EQ(real.queued, ref.queued) << "NI queueing diverged";
    EXPECT_EQ(real.linkQueued, ref.linkQueued)
        << "link queueing diverged";

    std::map<BlockId, Tick> refTick;
    for (const Delivery &d : refLog)
        refTick[d.id] = d.when;
    for (const Delivery &d : realLog)
        EXPECT_EQ(d.when, refTick[d.id])
            << "message " << d.id << " (" << int(d.src) << "->"
            << int(d.dst) << ") delivered at a different tick";

    // Per-pair FIFO: the id sequence each (src, dst) pair observes.
    std::map<std::pair<NodeId, NodeId>, std::vector<BlockId>> realSeq,
        refSeq, sendSeq;
    for (const Delivery &d : realLog)
        realSeq[{d.src, d.dst}].push_back(d.id);
    for (const Delivery &d : refLog)
        refSeq[{d.src, d.dst}].push_back(d.id);
    for (const Send &s : plan)
        sendSeq[{s.msg.src, s.msg.dst}].push_back(s.msg.blk);
    EXPECT_EQ(realSeq, refSeq);
    EXPECT_EQ(realSeq, sendSeq) << "point-to-point FIFO violated";
    return ref.undercuts;
}

ProtoConfig
config(TopoKind kind, Tick jitter)
{
    ProtoConfig cfg;
    cfg.topo.kind = kind;
    cfg.netJitter = jitter;
    return cfg;
}

} // namespace

TEST(DrainDiff, CrossbarMatchesTwoStageReference)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        expectEquivalent(config(TopoKind::Crossbar, 0), seed,
                         seed * 17 + 5, 600);
}

TEST(DrainDiff, CrossbarWithJitterMatchesTwoStageReference)
{
    for (std::uint64_t seed : {4u, 5u, 6u})
        EXPECT_GT(expectEquivalent(config(TopoKind::Crossbar, 12), seed,
                                   seed * 17 + 5, 600),
                  0u)
            << "plan " << seed << " never undercuts a pending head";
}

TEST(DrainDiff, RingMatchesTwoStageReference)
{
    for (std::uint64_t seed : {7u, 8u})
        expectEquivalent(config(TopoKind::Ring, 0), seed,
                         seed * 17 + 5, 600);
    EXPECT_GT(expectEquivalent(config(TopoKind::Ring, 9), 9, 42, 600),
              0u);
}

TEST(DrainDiff, Mesh2dMatchesTwoStageReference)
{
    for (std::uint64_t seed : {10u, 11u})
        expectEquivalent(config(TopoKind::Mesh2D, 0), seed,
                         seed * 17 + 5, 600);
    EXPECT_GT(expectEquivalent(config(TopoKind::Mesh2D, 9), 12, 43, 600),
              0u);
}

TEST(DrainDiff, Torus2dMatchesTwoStageReference)
{
    for (std::uint64_t seed : {13u, 14u})
        expectEquivalent(config(TopoKind::Torus2D, 0), seed,
                         seed * 17 + 5, 600);
    EXPECT_GT(expectEquivalent(config(TopoKind::Torus2D, 9), 15, 44, 600),
              0u);
}

TEST(DrainDiff, DenseSameDestinationBacklog)
{
    // The ingress_batch bench's shape: every source hammers one hot
    // node, so the drain spends the whole run inside one busy period
    // and the batched-reservation path carries every message.
    ProtoConfig cfg;
    std::vector<Send> plan;
    Tick t = 0;
    for (int i = 0; i < 800; ++i) {
        t += (i % 3 == 0) ? 1 : 0; // much faster than the NI drains
        Send s;
        s.when = t;
        s.msg.src = static_cast<NodeId>(1 + i % 15);
        s.msg.dst = 0;
        s.msg.type = (i & 3) ? MsgType::GetS : MsgType::DataShared;
        s.msg.blk = static_cast<BlockId>(i);
        plan.push_back(s);
    }
    const Outcome real = runReal(cfg, 99, plan);
    const Outcome ref = runRef(cfg, 99, plan);
    ASSERT_EQ(real.log.size(), plan.size());
    EXPECT_EQ(real.queued, ref.queued);
    EXPECT_GT(ref.undercuts, 0u)
        << "the backlog never undercuts a pending head";
    std::map<BlockId, Tick> refTick;
    for (const Delivery &d : ref.log)
        refTick[d.id] = d.when;
    for (const Delivery &d : real.log)
        EXPECT_EQ(d.when, refTick[d.id]) << "message " << d.id;
}
