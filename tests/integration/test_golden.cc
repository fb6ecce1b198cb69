/** @file Golden-value determinism: fixed-seed runs must stay
 * bit-identical across data-structure and event-kernel rewrites.
 *
 * The constants below were captured from the original seed
 * implementation (std::function binary-heap event queue, node-based
 * std::unordered_map predictor tables) and verified unchanged after
 * the timing-wheel / flat-table rewrite. Any future change to event
 * ordering, tie-breaking, or predictor learning that perturbs these
 * numbers is a behavioral change, not a refactor, and must be
 * justified (and these constants re-captured) explicitly.
 *
 * Re-captured once (execTicks only, PR 7): the batched event layer
 * -- the per-destination NI drain, the machine-wide local-delivery
 * flush, and the per-home directory due-queues -- performs every
 * piece of work at the identical tick the per-message/per-action
 * events did (tests/net/test_drain_diff.cc proves the transport leg
 * against a reference reimplementation on every topology), but work
 * units landing on the *same* tick across different nodes or
 * components now run in batch order instead of per-event schedule
 * order. Both orders are legal (each stream's internal FIFO is
 * preserved; nothing ever promised a cross-stream tie order); the
 * handler interleave at equal ticks shifts the em3d critical path by
 * a few tens of ticks. Message counts and every predictor and
 * speculation counter were unchanged, as was the fully-jittered
 * barnes run. Details in the ROADMAP perf log.
 *
 * Re-captured a second time (execTicks only, same PR): the optimistic
 * single-slot ingress reservation books the NI in strict
 * (arrival, seq) order for every message -- the order the retired
 * per-message arrival events fired in -- where the send-time elision
 * used to commit a reservation early under a fusion guard that a
 * deeper fused chain could still undercut (the guard rules out
 * *events* before the arrival, but a fused handler chain sends
 * without scheduling events, and a later send in the chain can carry
 * a smaller jittered arrival). A per-destination reservation-order
 * trace pinned the divergence to exactly those early commits; the
 * slot's undercut rollback restores the reference order. Message
 * counts, every predictor and speculation counter, and the jittered
 * barnes run were again unchanged.
 *
 * eventsDispatched is pinned too: the event kernel's work count, the
 * same on every box, so a change that adds or folds a dispatch on the
 * hot path shows here even when ticks and messages do not move.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "testutil.hh"

using namespace mspdsm;

namespace
{

ExperimentConfig
tiny()
{
    ExperimentConfig ec;
    ec.scale = 0.25;
    ec.iterations = 2;
    return ec;
}

} // namespace

TEST(Golden, Em3dAccuracyRunMatchesSeedKernel)
{
    const RunResult r = runAccuracy("em3d", 1, tiny());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, 124574u);
    EXPECT_EQ(r.messages, 2208u);
    EXPECT_EQ(r.eventsDispatched, 3649u);
    ASSERT_EQ(r.observers.size(), 3u);
    // Cosmos, MSP, VMSP at depth 1, in harness order.
    EXPECT_EQ(r.observers[0].stats.predicted.value(), 336u);
    EXPECT_EQ(r.observers[0].stats.correct.value(), 240u);
    EXPECT_EQ(r.observers[0].storage.pteTotal, 672u);
    EXPECT_EQ(r.observers[1].stats.predicted.value(), 240u);
    EXPECT_EQ(r.observers[1].stats.correct.value(), 240u);
    EXPECT_EQ(r.observers[1].storage.pteTotal, 336u);
    EXPECT_EQ(r.observers[2].stats.predicted.value(), 240u);
    EXPECT_EQ(r.observers[2].stats.correct.value(), 240u);
    EXPECT_EQ(r.observers[2].storage.pteTotal, 192u);
}

TEST(Golden, Em3dSpeculativeRunMatchesSeedKernel)
{
    const RunResult r = runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, 120022u);
    EXPECT_EQ(r.messages, 1984u);
    EXPECT_EQ(r.eventsDispatched, 3472u);
    EXPECT_EQ(r.swiSent, 80u);
    EXPECT_EQ(r.specSentSwi, 192u);
    EXPECT_EQ(r.specServedSwi, 192u);
    EXPECT_EQ(r.specServedFr, 32u);
    EXPECT_EQ(r.storage.pteTotal, 192u);
}

TEST(Golden, BarnesDeepHistoryRunMatchesSeedKernel)
{
    // Depth-2 history with jittered ack reordering: exercises the
    // multi-slot packed histories of all three predictors end to end.
    const RunResult r = runAccuracy("barnes", 2, tiny());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, 446220u);
    EXPECT_EQ(r.messages, 1210u);
    EXPECT_EQ(r.eventsDispatched, 2437u);
    ASSERT_EQ(r.observers.size(), 3u);
    EXPECT_EQ(r.observers[0].stats.predicted.value(), 53u);
    EXPECT_EQ(r.observers[0].stats.correct.value(), 46u);
    EXPECT_EQ(r.observers[0].storage.pteTotal, 452u);
    EXPECT_EQ(r.observers[1].stats.predicted.value(), 56u);
    EXPECT_EQ(r.observers[1].stats.correct.value(), 48u);
    EXPECT_EQ(r.observers[1].storage.pteTotal, 215u);
    EXPECT_EQ(r.observers[2].stats.predicted.value(), 0u);
    EXPECT_EQ(r.observers[2].stats.correct.value(), 0u);
    EXPECT_EQ(r.observers[2].storage.pteTotal, 50u);
}

TEST(Golden, UnstructuredSwiRunPinsOnTheClockTiming)
{
    // Captured when the fused fast path was deleted: every handler
    // now acts at curTick(), so same-tick work that used to run
    // ahead of the clock interleaves with other nodes' events in
    // queue order. This cell is one whose execTicks *and* message
    // count moved with that change (147129 ticks, 6424 messages and
    // 160 FR-served reads before), so a future fast path that shifts
    // timing cannot pass unnoticed the way the fused one did.
    ExperimentConfig ec = tiny();
    ec.scale = 0.5;
    const RunResult r =
        runSpec("unstructured", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, 147066u);
    EXPECT_EQ(r.messages, 6420u);
    EXPECT_EQ(r.eventsDispatched, 11413u);
    EXPECT_EQ(r.swiSent, 496u);
    EXPECT_EQ(r.specSentSwi, 384u);
    EXPECT_EQ(r.specServedSwi, 236u);
    EXPECT_EQ(r.specServedFr, 162u);
}
