/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/eventq.hh"
#include "testutil.hh"

using namespace mspdsm;
using test::At;

namespace
{

/** Appends its id to a shared log when it fires. */
struct Mark final : public Event
{
    Mark(std::vector<int> &l, int i) : log(&l), id(i) {}

    void process() override { log->push_back(id); }

    std::vector<int> *log;
    int id;
};

/** Reschedules itself zero ticks out until it has fired 1000 times. */
struct Chain final : public Event
{
    Chain(EventQueue &q, int &d) : eq(q), depth(d) {}

    void
    process() override
    {
        if (++depth < 1000)
            eq.scheduleAfter(0, *this);
    }

    EventQueue &eq;
    int &depth;
};

} // namespace

TEST(EventQueue, StartsAtTickZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.run());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    At e3([&] { order.push_back(3); });
    At e1([&] { order.push_back(1); });
    At e2([&] { order.push_back(2); });
    eq.schedule(30, e3);
    eq.schedule(10, e1);
    eq.schedule(20, e2);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<Mark> marks;
    marks.reserve(5);
    for (int i = 0; i < 5; ++i)
        marks.emplace_back(order, i);
    for (Mark &m : marks)
        eq.schedule(7, m);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ProcessMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    At inner([&] { ++fired; });
    At outer([&] {
        ++fired;
        eq.schedule(5, inner);
    });
    eq.schedule(1, outer);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 5u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    At inner([&] { seen = eq.curTick(); });
    At outer([&] { eq.scheduleAfter(7, inner); });
    eq.schedule(10, outer);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    bool late = false;
    At early([] {});
    At lateEv([&] { late = true; });
    eq.schedule(5, early);
    eq.schedule(100, lateEv);
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(late);
    EXPECT_EQ(eq.pending(), 1u);
    // Resume past the limit.
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(late);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<Mark> marks;
    marks.reserve(10);
    for (int i = 0; i < 10; ++i)
        marks.emplace_back(order, i);
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, marks[i]);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(EventQueue, ZeroDelaySelfScheduleChain)
{
    EventQueue eq;
    int depth = 0;
    Chain chain(eq, depth);
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(depth, 1000);
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    At past([] {});
    At e([&] {
        eq.schedule(50, past); // in the past relative to tick 100
    });
    eq.schedule(100, e);
    EXPECT_DEATH(eq.run(), "past");
}
