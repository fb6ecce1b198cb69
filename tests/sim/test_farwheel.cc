/** @file Stress tests for the event queue's far path: dense and
 * sparse far schedules, cancel/reschedule between the near wheel and
 * the far list, and the per-tick FIFO tie-break surviving the move
 * from list to wheel.
 *
 * Geometry under test (see sim/eventq.hh): the near wheel covers
 * gigaticks curG and curG+1 (one gigatick = 4096 ticks); every later
 * event waits in the far list, in schedule order, until the window
 * enters the gigatick before its own. Some cases schedule millions
 * of ticks out (the deadlock-guard range).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/eventq.hh"

using namespace mspdsm;

namespace
{

constexpr Tick giga = 4096;

/** Records its fire time and order into shared logs. */
struct Probe final : public Event
{
    Probe() = default;
    Probe(std::vector<int> *order, int id) : log(order), tag(id) {}

    void
    process() override
    {
        ++fired;
        lastTick = when();
        if (log)
            log->push_back(tag);
    }

    std::vector<int> *log = nullptr;
    int tag = 0;
    int fired = 0;
    Tick lastTick = 0;
};

} // namespace

TEST(FarWheel, DenseFarScheduleFiresInTimeOrder)
{
    // The eventq/far bench pattern: thousands of events spread far
    // beyond the near window, scheduled in scrambled order.
    constexpr int n = 20000;
    EventQueue eq;
    std::vector<Probe> probes(n);
    for (int i = 0; i < n; ++i)
        eq.schedule(Tick((i * 131) % 65536), probes[i]);
    EXPECT_EQ(eq.pending(), std::size_t(n));

    EXPECT_TRUE(eq.run());
    Tick last = 0;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(probes[i].fired, 1);
        EXPECT_EQ(probes[i].lastTick, Tick((i * 131) % 65536));
        last = std::max(last, probes[i].lastTick);
        fired += probes[i].fired;
    }
    EXPECT_EQ(fired, n);
    EXPECT_EQ(eq.curTick(), last);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(FarWheel, SparseSchedulesAcrossAllLevels)
{
    // Both halves of the near wheel plus a near and a very distant
    // far-list event.
    EventQueue eq;
    std::vector<int> order;
    Probe near(&order, 0);
    Probe nextGiga(&order, 1);
    Probe farList(&order, 2);
    Probe distant(&order, 3);
    eq.schedule(5, near);
    eq.schedule(giga + 7, nextGiga);         // near wheel, gigatick 1
    eq.schedule(40 * giga + 3, farList);     // far list
    eq.schedule(5000 * giga + 1, distant);   // far list, ~20M ticks
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 5000 * giga + 1);
}

TEST(FarWheel, FifoTieBreakSurvivesCascade)
{
    // Two events for the same distant tick, scheduled far apart in
    // time: A goes through the far list, B is inserted directly
    // once the window is close. A was scheduled first and must fire
    // first, even though it reaches the near wheel from the list.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 50 * giga + 123;
    Probe a(&order, 1);
    Probe b(&order, 2);
    Probe c(&order, 3);

    struct Inserter final : public Event
    {
        void
        process() override
        {
            eq->schedule(when_, *later);
        }
        EventQueue *eq;
        Tick when_;
        Event *later;
    } inserter;

    eq.schedule(target, a); // far list
    eq.schedule(target, c); // far list, after a
    inserter.eq = &eq;
    inserter.when_ = target;
    inserter.later = &b;
    // Fires in the same gigatick as the target: a and c have moved
    // into the wheel by then, b lands behind them.
    eq.schedule(target - 100, inserter);

    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(FarWheel, FifoTieBreakSurvivesHeapMigration)
{
    // Same-tick events wait in the far list across many window
    // advances (each compacts the list) and then move into the
    // wheel, preserving schedule order throughout.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 400 * giga + 9;
    std::vector<Probe> probes;
    probes.reserve(6);
    for (int i = 0; i < 6; ++i) {
        probes.emplace_back(&order, i);
        eq.schedule(target, probes[i]);
    }
    // A pacemaker walks the window forward so the far events survive
    // several compactions rather than jumping straight to the near
    // wheel.
    struct Pacer final : public Event
    {
        void
        process() override
        {
            if (when() + step < stop)
                eq->schedule(when() + step, *this);
        }
        EventQueue *eq;
        Tick step;
        Tick stop;
    } pacer;
    pacer.eq = &eq;
    pacer.step = 100 * giga;
    pacer.stop = target;
    eq.schedule(1, pacer);

    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(FarWheel, DescheduleAcrossLevels)
{
    EventQueue eq;
    Probe near, farw, distant, keep;
    eq.schedule(10, near);           // near wheel
    eq.schedule(30 * giga, farw);    // far list
    eq.schedule(3000 * giga, distant); // far list, ~12M ticks
    eq.schedule(20, keep);
    EXPECT_EQ(eq.pending(), 4u);

    EXPECT_TRUE(eq.deschedule(near));
    EXPECT_TRUE(eq.deschedule(farw));
    EXPECT_TRUE(eq.deschedule(distant));
    EXPECT_FALSE(near.scheduled());
    EXPECT_FALSE(eq.deschedule(near)); // no-op the second time
    EXPECT_EQ(eq.pending(), 1u);

    EXPECT_TRUE(eq.run());
    EXPECT_EQ(near.fired, 0);
    EXPECT_EQ(farw.fired, 0);
    EXPECT_EQ(distant.fired, 0);
    EXPECT_EQ(keep.fired, 1);
    EXPECT_EQ(eq.curTick(), 20u);
}

TEST(FarWheel, RescheduleMovesBetweenLevels)
{
    // One event object walks far list -> far list -> near wheel via
    // deschedule + reschedule, then fires exactly once.
    EventQueue eq;
    Probe p;
    eq.schedule(4000 * giga, p); // far list
    EXPECT_TRUE(eq.deschedule(p));
    eq.schedule(100 * giga, p); // far list again
    EXPECT_TRUE(eq.deschedule(p));
    eq.schedule(42, p); // near wheel
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(p.fired, 1);
    EXPECT_EQ(p.lastTick, 42u);
    EXPECT_EQ(eq.curTick(), 42u);
}

TEST(FarWheel, DescheduleMidBucketPreservesRemainingOrder)
{
    // Five same-tick far events; the middle one is cancelled before
    // the tick arrives. The erase from the list is stable, so the
    // rest keep their schedule order.
    EventQueue eq;
    std::vector<int> order;
    std::vector<Probe> probes;
    probes.reserve(5);
    const Tick target = 20 * giga + 5; // far list
    for (int i = 0; i < 5; ++i) {
        probes.emplace_back(&order, i);
        eq.schedule(target, probes[i]);
    }
    EXPECT_TRUE(eq.deschedule(probes[2]));
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
}

TEST(FarWheel, CancelledEventCanBeRescheduledIntoSameBucket)
{
    EventQueue eq;
    std::vector<int> order;
    Probe a(&order, 1);
    Probe b(&order, 2);
    const Tick target = 10 * giga;
    eq.schedule(target, a);
    eq.schedule(target, b);
    // Cancel a and re-add it: it now comes *after* b.
    EXPECT_TRUE(eq.deschedule(a));
    eq.schedule(target, a);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(FarWheel, RunLimitStopsBeforeFarEvents)
{
    EventQueue eq;
    Probe near, farw;
    eq.schedule(100, near);
    eq.schedule(80 * giga, farw);
    EXPECT_FALSE(eq.run(1000));
    EXPECT_EQ(near.fired, 1);
    EXPECT_EQ(farw.fired, 0);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(farw.fired, 1);
}

TEST(FarWheel, BigJumpCascadesEverything)
{
    // The window leaps hundreds of gigaticks in one advance (empty
    // near wheel): every far event must move into the wheel at once,
    // tick-ordered and FIFO within a tick.
    EventQueue eq;
    std::vector<int> order;
    std::vector<Probe> probes;
    probes.reserve(8);
    for (int i = 0; i < 8; ++i) {
        probes.emplace_back(&order, i);
        // All land in the far list, two adjacent distant ticks.
        const Tick when = 600 * giga + 50 * (i % 2);
        eq.schedule(when, probes[i]);
    }
    EXPECT_TRUE(eq.run());
    // Ticks 600*giga (even tags) then 600*giga+50 (odd tags).
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
}

TEST(FarWheel, SelfRescheduleWalksThroughGigatickBoundaries)
{
    // A component-timer pattern crossing many gigatick boundaries.
    EventQueue eq;
    struct Timer final : public Event
    {
        void
        process() override
        {
            ++count;
            if (count < 1000)
                eq->scheduleAfter(1000, *this); // crosses gigaticks
        }
        EventQueue *eq;
        int count = 0;
    } timer;
    timer.eq = &eq;
    eq.schedule(0, timer);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(timer.count, 1000);
    EXPECT_EQ(eq.curTick(), 999u * 1000u);
    EXPECT_EQ(eq.executed(), 1000u);
}
