/** @file Mass-cancellation stress tests for the event queue: a
 * component going down deschedules whole pools of events at once
 * (EventPool::forEach + deschedule), and the queue must stay
 * *exact* afterwards -- pending() counts only survivors and the
 * survivors fire in time order -- in the near wheel and the far
 * list alike.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/random.hh"
#include "net/network.hh"
#include "sim/eventq.hh"
#include "testutil.hh"

using namespace mspdsm;
using test::At;
using test::EventPool;

namespace
{

constexpr Tick giga = 4096;

struct Probe final : public Event
{
    void process() override { ++fired; }

    int fired = 0;
};

/** Records the tick it fires at into a shared log. */
struct Stamp final : public Event
{
    Stamp(EventQueue &q, std::vector<Tick> &l) : eq(q), log(l) {}

    void process() override { log.push_back(eq.curTick()); }

    EventQueue &eq;
    std::vector<Tick> &log;
};

} // namespace

TEST(MassCancel, CancellingTheMinimumFiresTheRest)
{
    // Cancel the earliest event, then the next earliest once the
    // queue is running: the survivors fire in time order and the
    // pending count tracks every cancellation.
    EventQueue eq;
    std::vector<Tick> fired;
    Stamp a(eq, fired), b(eq, fired), c(eq, fired), d(eq, fired);
    eq.schedule(10, a);
    eq.schedule(500, b);
    eq.schedule(900, c);
    eq.schedule(1300, d);
    EXPECT_TRUE(eq.deschedule(a));
    EXPECT_EQ(eq.pending(), 3u);
    auto cancel = At([&] {
        EXPECT_TRUE(eq.deschedule(c));
        EXPECT_EQ(eq.pending(), 1u); // d only; b already fired
    });
    eq.schedule(500, cancel);

    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Tick>{500, 1300}));
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.curTick(), 1300u);
}

TEST(MassCancel, CancellingAcrossLevelsFiresTheRest)
{
    // Cancel the earliest event in turn; the next survivor may live
    // further out every time (near wheel, then the far list), and the
    // queue must find it there.
    for (int cancelled = 0; cancelled <= 3; ++cancelled) {
        EventQueue eq;
        std::vector<Tick> fired;
        Stamp near(eq, fired), farw(eq, fired), distant(eq, fired);
        eq.schedule(42, near);              // near wheel
        eq.schedule(80 * giga + 7, farw);   // far list
        eq.schedule(5000 * giga, distant);  // far list, ~20M ticks
        Stamp *order[] = {&near, &farw, &distant};
        for (int i = 0; i < cancelled; ++i)
            EXPECT_TRUE(eq.deschedule(*order[i]));
        EXPECT_EQ(eq.pending(), std::size_t(3 - cancelled));

        EXPECT_TRUE(eq.run());
        const std::vector<Tick> all{42, 80 * giga + 7, 5000 * giga};
        EXPECT_EQ(fired, std::vector<Tick>(all.begin() + cancelled,
                                           all.end()))
            << cancelled << " cancelled";
        EXPECT_EQ(eq.executed(), std::uint64_t(3 - cancelled));
    }
}

TEST(MassCancel, BulkCancelKeepsSurvivorsAndOrder)
{
    // Kill every third event of a dense schedule spanning the near
    // wheel and a long far list; the survivors fire exactly once, in
    // time order, and the executed count is exact.
    constexpr int n = 3000;
    EventQueue eq;
    std::vector<Probe> probes(n);
    for (int i = 0; i < n; ++i)
        eq.schedule(Tick(i) * 1500, probes[i]); // spans ~1100 gigaticks
    for (int i = 0; i < n; i += 3)
        EXPECT_TRUE(eq.deschedule(probes[i]));
    EXPECT_EQ(eq.pending(), std::size_t(n - n / 3));

    EXPECT_TRUE(eq.run());
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(probes[i].fired, i % 3 == 0 ? 0 : 1) << "probe " << i;
    EXPECT_EQ(eq.executed(), std::size_t(n - n / 3));
}

TEST(MassCancel, PoolSweepFromInsideProcess)
{
    // The Directory::failover pattern, mid-run: an event's process()
    // walks an EventPool, descheduling and releasing everything still
    // pending -- including events in the *current* tick's bucket that
    // were scheduled behind the sweeper.
    EventQueue eq;
    EventPool<Probe> pool;

    struct Sweeper final : public Event
    {
        void
        process() override
        {
            pool->forEach([this](Probe &p) {
                if (p.scheduled()) {
                    eq->deschedule(p);
                    pool->release(p);
                }
            });
        }
        EventQueue *eq;
        EventPool<Probe> *pool;
    } sweeper;
    sweeper.eq = &eq;
    sweeper.pool = &pool;
    eq.schedule(100, sweeper); // scheduled first: same-tick probes
                               // land behind it in the bucket

    std::vector<Probe *> carved;
    for (int i = 0; i < 64; ++i) {
        Probe &p = pool.acquire();
        carved.push_back(&p);
        // Same tick as the sweeper (still in the current bucket when
        // the sweep runs), near wheel, far list, distant far list.
        const Tick when = i % 4 == 0   ? 100
                          : i % 4 == 1 ? 3000
                          : i % 4 == 2 ? 90 * giga
                                       : 2000 * giga;
        eq.schedule(when, p);
    }

    EXPECT_TRUE(eq.run());
    for (Probe *p : carved)
        EXPECT_EQ(p->fired, 0);
    EXPECT_EQ(eq.executed(), 1u); // only the sweeper
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(MassCancel, SweepInsideProcessFindsTheFarSurvivor)
{
    // After an in-process() mass cancel, the queue's own main loop
    // must skip every cancelled near-wheel tick and find the lone
    // surviving event in the far list.
    EventQueue eq;
    Probe victims[8];
    Probe survivor;
    for (auto &v : victims)
        eq.schedule(200 + (&v - victims) * 700, v);
    eq.schedule(400 * giga + 13, survivor);

    struct Sweeper final : public Event
    {
        void
        process() override
        {
            for (int i = 0; i < 8; ++i)
                eq->deschedule(victims[i]);
            EXPECT_EQ(eq->pending(), 1u);
        }
        EventQueue *eq;
        Probe *victims;
    } sweeper;
    sweeper.eq = &eq;
    sweeper.victims = victims;
    eq.schedule(50, sweeper);

    EXPECT_TRUE(eq.run());
    for (auto &v : victims)
        EXPECT_EQ(v.fired, 0);
    EXPECT_EQ(survivor.fired, 1);
    EXPECT_EQ(eq.curTick(), 400u * giga + 13u);
    EXPECT_EQ(eq.executed(), 2u);
}

namespace
{

/** Raw network sink: records (tick, blk) per delivery. */
struct SinkLog
{
    EventQueue *eq;
    std::vector<std::pair<Tick, BlockId>> log;

    static void
    record(void *ctx, const CohMsg &m)
    {
        auto *s = static_cast<SinkLog *>(ctx);
        s->log.emplace_back(s->eq->curTick(), m.blk);
    }
};

CohMsg
toZero(NodeId src, BlockId blk)
{
    CohMsg m;
    m.type = MsgType::GetS;
    m.src = src;
    m.dst = 0;
    m.blk = blk;
    return m;
}

} // namespace

TEST(MassCancel, ForeignPoolSweepLeavesTheDrainFifoIntact)
{
    // A directory failover sweeps *its own* event pool
    // (EventPool::forEach + deschedule) while a destination's ingress
    // FIFO is non-empty and its drain event is pending. The sweep
    // must not perturb the drain: every queued arrival still delivers
    // at exactly the tick an undisturbed run produces.
    auto run = [](bool sweep) {
        EventQueue eq;
        ProtoConfig cfg;
        Network net(eq, cfg, Rng(7));
        SinkLog sink{&eq, {}};
        for (NodeId n = 0; n < cfg.numNodes; ++n)
            net.attach(n, &SinkLog::record, &sink);

        auto send = At([&] {
            for (int i = 0; i < 12; ++i)
                net.send(toZero(NodeId(1 + i % 3), BlockId(i)));
        });
        eq.schedule(5, send);

        EventPool<Probe> pool;
        auto sweeper = At([&] {
            // The backlog is in flight: pending arrivals queued, the
            // drain armed. Sweep a 64-event pool spanning the near
            // wheel and the far list, failover-style.
            EXPECT_GT(net.inFlightTo(0), 0u);
            EXPECT_TRUE(net.drainEvent(0).scheduled());
            pool.forEach([&](Probe &p) {
                if (p.scheduled()) {
                    eq.deschedule(p);
                    pool.release(p);
                }
            });
        });
        if (sweep) {
            eq.schedule(20, sweeper);
            for (int i = 0; i < 64; ++i) {
                Probe &p = pool.acquire();
                const Tick when = i % 4 == 0   ? 20
                                  : i % 4 == 1 ? 3000
                                  : i % 4 == 2 ? 90 * giga
                                               : 2000 * giga;
                eq.schedule(when, p);
            }
        }

        EXPECT_TRUE(eq.run());
        EXPECT_EQ(net.inFlightTo(0), 0u);
        return sink.log;
    };

    const auto undisturbed = run(false);
    const auto swept = run(true);
    EXPECT_EQ(undisturbed.size(), 12u);
    EXPECT_EQ(swept, undisturbed);
}

TEST(MassCancel, DeschedulingTheDrainStrandsNothingPastTheNextPush)
{
    // The hostile case the failover path must never create but the
    // network has to survive anyway: the drain event itself is
    // descheduled while the per-destination FIFO holds arrivals. The
    // queue then runs dry with the backlog stranded -- until the next
    // push to that destination, whose !scheduled() branch re-arms the
    // drain (clamped to the current tick, long past the stranded
    // arrival times) and every queued message delivers, in order.
    EventQueue eq;
    ProtoConfig cfg;
    cfg.netJitter = 0; // deterministic cross-source arrival order
    Network net(eq, cfg, Rng(7));
    SinkLog sink{&eq, {}};
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        net.attach(n, &SinkLog::record, &sink);

    auto send = At([&] {
        for (int i = 0; i < 12; ++i)
            net.send(toZero(NodeId(1 + i % 3), BlockId(i)));
    });
    eq.schedule(5, send);

    auto cancel = At([&] {
        ASSERT_EQ(net.inFlightTo(0), 12u);
        ASSERT_TRUE(net.drainEvent(0).scheduled());
        EXPECT_TRUE(eq.deschedule(net.drainEvent(0)));
    });
    eq.schedule(20, cancel);

    EXPECT_TRUE(eq.run());
    // Stranded: the queue is empty, the backlog is not.
    EXPECT_EQ(sink.log.size(), 0u);
    EXPECT_EQ(net.inFlightTo(0), 12u);
    EXPECT_FALSE(net.drainEvent(0).scheduled());

    // One late push heals the node: it re-arms the drain and the
    // whole backlog drains behind it.
    const Tick healTick = 5000;
    auto heal = At([&] { net.send(toZero(3, BlockId(99))); });
    eq.schedule(healTick, heal);
    EXPECT_TRUE(eq.run());

    ASSERT_EQ(sink.log.size(), 13u);
    EXPECT_EQ(net.inFlightTo(0), 0u);
    for (std::size_t i = 0; i < 12; ++i) {
        // Stranded arrivals deliver at/after the heal (never at a
        // stale pre-strand tick) and keep their push order.
        EXPECT_GE(sink.log[i].first, healTick) << "delivery " << i;
        EXPECT_EQ(sink.log[i].second, BlockId(i));
    }
    EXPECT_EQ(sink.log.back().second, BlockId(99));
}

TEST(MassCancel, CancelAllThenRescheduleReusesTheQueue)
{
    // A restart after failover: the same queue keeps running with
    // fresh schedules, and per-tick FIFO order starts clean.
    EventQueue eq;
    std::vector<Probe> gen1(50), gen2(50);
    for (int i = 0; i < 50; ++i)
        eq.schedule(Tick(10 + i * 37), gen1[i]);
    for (auto &p : gen1)
        EXPECT_TRUE(eq.deschedule(p));
    EXPECT_EQ(eq.pending(), 0u);
    for (int i = 0; i < 50; ++i)
        eq.schedule(Tick(10 + i * 37), gen2[i]);
    EXPECT_TRUE(eq.run());
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(gen1[i].fired, 0);
        EXPECT_EQ(gen2[i].fired, 1);
    }
    EXPECT_EQ(eq.executed(), 50u);
}
