/** @file Regression tests for the deadlock-guard semantics: hitting
 * DsmConfig::tickLimit must be reported distinctly from a clean drain
 * in RunResult instead of aborting the process. */

#include <gtest/gtest.h>

#include "testutil.hh"

using namespace mspdsm;
using namespace mspdsm::test;

namespace
{

/** A trace that costs well over @p limit ticks to execute. */
Trace
longTrace(Tick limit)
{
    Trace t;
    for (Tick spent = 0; spent <= limit; spent += 100)
        t.push_back(TraceOp::compute(100));
    return t;
}

} // namespace

TEST(TickLimit, CleanDrainReportsCompleted)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    std::vector<Trace> ts(4, Trace{TraceOp::compute(10)});
    const RunResult r = sys.run(ts);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_TRUE(r.completed());
}

TEST(TickLimit, GuardTripReportsTickLimit)
{
    DsmConfig cfg = smallConfig();
    cfg.tickLimit = 500;
    DsmSystem sys(cfg);
    std::vector<Trace> ts(4, longTrace(cfg.tickLimit));
    const RunResult r = sys.run(ts);
    EXPECT_EQ(r.status, RunStatus::TickLimit);
    EXPECT_FALSE(r.completed());
    // The partial snapshot must not claim time beyond the guard.
    EXPECT_LE(r.execTicks, cfg.tickLimit);
    // Unexecuted work is still pending, resumable by a later run.
    EXPECT_GT(sys.eventQueue().pending(), 0u);
}

TEST(TickLimit, GuardedRunIsResumable)
{
    // The guard must leave the queue consistent: a second run with a
    // higher limit finishes the same workload.
    DsmConfig cfg = smallConfig();
    cfg.tickLimit = 500;
    DsmSystem sysGuarded(cfg);
    std::vector<Trace> ts(4, longTrace(cfg.tickLimit));
    ASSERT_EQ(sysGuarded.run(ts).status, RunStatus::TickLimit);
    EXPECT_TRUE(sysGuarded.eventQueue().run());
    EXPECT_GT(sysGuarded.eventQueue().curTick(), Tick{500});
}

TEST(TickLimit, ResumedRunRereadsTheCompiledArena)
{
    // Regression: run(traces) used to compile into a call-local
    // CompiledWorkload, so a guard trip left the resumable step
    // events holding spans into a freed arena. An all-compute trace
    // hides that (it compiles to one op, already consumed when the
    // guard trips); memory ops split the compute runs, so this trace
    // still has unexecuted compiled ops at the trip and the resumed
    // steps must re-read the arena -- which now lives on the system.
    DsmConfig cfg = smallConfig();
    cfg.tickLimit = 500;
    DsmSystem sys(cfg);
    std::vector<Trace> ts(4);
    for (unsigned i = 0; i < 64; ++i) {
        ts[0].push_back(TraceOp::compute(50));
        ts[0].push_back(TraceOp::read(Addr{i} *
                                      cfg.proto.blockSize));
    }
    ASSERT_EQ(sys.run(ts).status, RunStatus::TickLimit);
    EXPECT_TRUE(sys.eventQueue().run());
    EXPECT_GT(sys.eventQueue().curTick(), Tick{500});
}

TEST(TickLimit, LoneComputeTraceHonoursTheGuard)
{
    // A compute-only trace past the limit on an otherwise idle
    // machine: its last step event lies beyond the limit, so the run
    // must trip the guard and report TickLimit, not Completed.
    DsmConfig cfg = smallConfig();
    cfg.tickLimit = 500;
    DsmSystem sys(cfg);
    std::vector<Trace> ts(4);
    ts[3] = longTrace(cfg.tickLimit);
    const RunResult r = sys.run(ts);
    EXPECT_EQ(r.status, RunStatus::TickLimit);
    EXPECT_LE(r.execTicks, cfg.tickLimit);
}

TEST(TickLimit, EventsExactlyAtLimitExecute)
{
    // EventQueue::run(limit) is inclusive: an event at the limit tick
    // runs; only strictly later events trip the guard.
    EventQueue eq;
    bool at = false, past = false;
    test::At atEv([&] { at = true; });
    test::At pastEv([&] { past = true; });
    eq.schedule(50, atEv);
    eq.schedule(51, pastEv);
    EXPECT_FALSE(eq.run(50));
    EXPECT_TRUE(at);
    EXPECT_FALSE(past);
    EXPECT_EQ(eq.pending(), 1u);
}
