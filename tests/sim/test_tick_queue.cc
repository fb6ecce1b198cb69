/** @file Unit tests for TickQueue and EventQueue::scheduleBy. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/eventq.hh"
#include "sim/tick_queue.hh"
#include "testutil.hh"

using namespace mspdsm;
using test::At;

namespace
{

/** Pop everything, returning the payloads in pop order. */
std::vector<int>
drain(TickQueue<int> &q)
{
    std::vector<int> out;
    while (!q.empty()) {
        out.push_back(q.front().val);
        q.pop();
    }
    return out;
}

} // namespace

TEST(TickQueue, EqualTicksPopInPushOrder)
{
    TickQueue<int> q;
    q.push(10, 1);
    q.push(10, 2);
    q.push(5, 0);  // lands before both, by tick
    q.push(10, 3); // after the earlier tick-10 pushes
    EXPECT_EQ(drain(q), (std::vector<int>{0, 1, 2, 3}));
}

TEST(TickQueue, OutOfOrderPushLandsByTick)
{
    TickQueue<int> q;
    for (int t : {10, 20, 30, 40})
        q.push(Tick(t), t);
    q.push(25, 25);
    q.push(1, 1);
    q.push(40, 41); // equal to the back: appends
    EXPECT_EQ(q.size(), 7u);
    EXPECT_EQ(q.front().tick, 1u);
    EXPECT_EQ(drain(q), (std::vector<int>{1, 10, 20, 25, 30, 40, 41}));
}

TEST(TickQueue, DueComparesTheFrontTick)
{
    TickQueue<int> q;
    EXPECT_FALSE(q.due(100));
    q.push(7, 0);
    EXPECT_FALSE(q.due(6));
    EXPECT_TRUE(q.due(7));
}

TEST(TickQueue, PoppingToEmptyReclaimsTheVector)
{
    TickQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push(Tick(i), i);
    q.pop();
    q.pop();
    EXPECT_EQ(q.held(), 5u); // popped prefix still held
    EXPECT_EQ(q.size(), 3u);
    q.pop();
    q.pop();
    q.pop();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.held(), 0u);
    // The next push starts a fresh queue, even at an earlier tick.
    q.push(0, 9);
    EXPECT_EQ(q.held(), 1u);
    EXPECT_EQ(q.front().val, 9);
}

TEST(TickQueue, OrderSurvivesCompactionPast64Pops)
{
    TickQueue<int> q;
    for (int i = 0; i < 100; ++i)
        q.push(Tick(i), i);
    std::vector<int> popped;
    for (int i = 0; i < 64; ++i) {
        popped.push_back(q.front().val);
        q.pop();
        // Interleave appends with the pops.
        if (i % 10 == 0)
            q.push(Tick(100 + i), 100 + i);
    }
    // The 64th pop compacted the popped prefix away.
    EXPECT_EQ(q.size(), 43u);
    EXPECT_EQ(q.held(), q.size());
    q.push(95, 1000); // lands among the survivors after compaction
    const std::vector<int> rest = drain(q);
    popped.insert(popped.end(), rest.begin(), rest.end());

    std::vector<int> expect;
    for (int i = 0; i < 96; ++i)
        expect.push_back(i);
    expect.push_back(1000);
    for (int i = 96; i < 100; ++i)
        expect.push_back(i);
    for (int i = 0; i < 64; i += 10)
        expect.push_back(100 + i);
    EXPECT_EQ(popped, expect);
}

TEST(TickQueue, EraseIfKeepsOrderAndCanEmpty)
{
    TickQueue<int> q;
    for (int i = 0; i < 10; ++i)
        q.push(Tick(i / 2), i);
    q.pop(); // erase works on the live suffix only
    q.eraseIf([](int v) { return v % 3 == 0; });
    EXPECT_EQ(q.size(), 6u);
    TickQueue<int> copy = q;
    EXPECT_EQ(drain(copy), (std::vector<int>{1, 2, 4, 5, 7, 8}));

    q.eraseIf([](int) { return true; });
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.held(), 0u);
    q.push(3, 42);
    EXPECT_EQ(drain(q), (std::vector<int>{42}));
}

TEST(TickQueue, ClearEmptiesAndAcceptsAnyTick)
{
    TickQueue<int> q;
    q.push(50, 1);
    q.push(60, 2);
    q.pop();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.held(), 0u);
    q.push(1, 3);
    EXPECT_EQ(drain(q), (std::vector<int>{3}));
}

TEST(ScheduleBy, KeepsEarlierMovesLaterArmsIdle)
{
    EventQueue eq;
    std::vector<Tick> fired;
    At ev([&] { fired.push_back(eq.curTick()); });

    // Idle: arms.
    eq.scheduleBy(50, ev);
    ASSERT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 50u);
    // Already pending earlier (or at the same tick): kept.
    eq.scheduleBy(80, ev);
    EXPECT_EQ(ev.when(), 50u);
    eq.scheduleBy(50, ev);
    EXPECT_EQ(ev.when(), 50u);
    // Pending later: moved earlier, still one pending event.
    eq.scheduleBy(20, ev);
    EXPECT_EQ(ev.when(), 20u);
    EXPECT_EQ(eq.pending(), 1u);

    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Tick>{20}));
}
