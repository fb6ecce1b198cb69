/** @file DsmSystem-level tests: configuration validation, stats
 * aggregation identities, and cross-run accounting invariants. */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "testutil.hh"

using namespace mspdsm;
using namespace mspdsm::test;

namespace
{

/** Small experiment config (seed 42, 16 procs -- the defaults). */
ExperimentConfig
small(double scale, unsigned iters)
{
    ExperimentConfig ec;
    ec.scale = scale;
    ec.iterations = iters;
    return ec;
}

} // namespace

TEST(System, RejectsSpeculationWithoutVmsp)
{
    DsmConfig cfg = smallConfig();
    cfg.spec = SpecMode::FirstRead;
    cfg.pred = PredKind::Msp;
    EXPECT_DEATH(DsmSystem sys(cfg), "VMSP");
}

TEST(System, RejectsWrongTraceCount)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    std::vector<Trace> three(3);
    EXPECT_DEATH(sys.run(three), "expected 4 traces");
}

TEST(System, RejectsWorkloadNumberedForAnotherGeometry)
{
    // Compiled block ids encode the node count and page geometry
    // (dense per-home numbering), so a mismatch must fail fast, not
    // run with every block on the wrong home.
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const std::vector<Trace> four(4, Trace{TraceOp::read(0)});
    ProtoConfig eight = cfg.proto;
    eight.numNodes = 8;
    const CompiledWorkload wrongNodes(four, AddrMap(eight));
    EXPECT_DEATH(sys.run(wrongNodes), "numbered for 8 nodes");
    ProtoConfig bigPages = cfg.proto;
    bigPages.pageSize *= 2;
    const CompiledWorkload wrongPages(four, AddrMap(bigPages));
    EXPECT_DEATH(sys.run(wrongPages), "256 blocks per page");
}

TEST(System, RejectsNoneObserver)
{
    DsmConfig cfg = smallConfig();
    cfg.observers = {{PredKind::None, 1}};
    EXPECT_DEATH(DsmSystem sys(cfg), "observer");
}

TEST(System, EmptyTracesCompleteImmediately)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const RunResult r = sys.run(idleTraces(4));
    EXPECT_EQ(r.reads, 0u);
    EXPECT_EQ(r.writes, 0u);
    EXPECT_EQ(r.messages, 0u);
}

TEST(System, ObserverResultsFollowConfigOrder)
{
    DsmConfig cfg = smallConfig();
    cfg.observers = {{PredKind::Vmsp, 2},
                     {PredKind::Cosmos, 1},
                     {PredKind::Msp, 4}};
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    const RunResult r =
        sys.run(soloTrace(4, 1, Trace{TraceOp::read(a)}));
    ASSERT_EQ(r.observers.size(), 3u);
    EXPECT_EQ(r.observers[0].name, "VMSP");
    EXPECT_EQ(r.observers[0].depth, 2u);
    EXPECT_EQ(r.observers[1].name, "Cosmos");
    EXPECT_EQ(r.observers[2].name, "MSP");
    EXPECT_EQ(r.observers[2].depth, 4u);
}

TEST(System, PredictedNeverExceedsObserved)
{
    const RunResult r = runAccuracy("em3d", 1, small(0.25, 3));
    for (const ObserverResult &o : r.observers) {
        EXPECT_LE(o.stats.predicted.value(), o.stats.observed.value());
        EXPECT_LE(o.stats.correct.value(), o.stats.predicted.value());
    }
}

TEST(System, MessageCountsAreConsistent)
{
    DsmConfig cfg = smallConfig();
    DsmSystem sys(cfg);
    const Addr a = blockOn(cfg.proto, 0);
    std::vector<Trace> ts(4);
    ts[1] = {TraceOp::read(a), TraceOp::write(a)};
    ts[2] = {TraceOp::barrier()};
    ts[1].push_back(TraceOp::barrier());
    ts[0] = {TraceOp::barrier()};
    ts[3] = {TraceOp::barrier()};
    const RunResult r = sys.run(ts);
    // GetS + DataShared + Upgrade + UpgradeAck = 4 messages.
    EXPECT_EQ(r.messages, 4u);
}

TEST(System, SpecAccountingIdentities)
{
    // For every app and mode: served <= sent, miss <= sent, and
    // (served + missed + dropped + still-unverified) accounts for
    // every pushed copy -- we check the inequality direction, the
    // exact partition being unobservable after teardown.
    for (const char *app : {"em3d", "tomcatv", "unstructured"}) {
        const RunResult r =
            runSpec(app, SpecMode::SwiFirstRead, small(0.25, 4));
        EXPECT_LE(r.specServedFr + r.specMissFr,
                  r.specSentFr + r.specDropped)
            << app;
        EXPECT_LE(r.specServedSwi + r.specMissSwi,
                  r.specSentSwi + r.specDropped)
            << app;
        EXPECT_LE(r.swiPremature + r.swiSuppressed,
                  r.swiSent + r.swiSuppressed)
            << app;
    }
}

TEST(System, BaseRunsHaveNoSpeculationSideEffects)
{
    for (const AppInfo &info : appSuite()) {
        const RunResult r =
            runSpec(info.name, SpecMode::None, small(0.25, 2));
        EXPECT_EQ(r.specSentFr + r.specSentSwi, 0u) << info.name;
        EXPECT_EQ(r.swiSent, 0u) << info.name;
        EXPECT_EQ(r.specDropped, 0u) << info.name;
    }
}

TEST(System, RequestWaitBoundedByMemWait)
{
    const RunResult r =
        runSpec("moldyn", SpecMode::None, small(0.25, 3));
    EXPECT_LE(r.avgRequestWait, r.avgMemWait);
    EXPECT_LE(r.avgMemWait, static_cast<double>(r.execTicks));
}

TEST(System, SixteenNodeDefaultMatchesPaper)
{
    DsmConfig cfg;
    EXPECT_EQ(cfg.proto.numNodes, 16u);
    EXPECT_EQ(cfg.proto.blockSize, 32u);
    DsmSystem sys(cfg);
    const RunResult r = sys.run(std::vector<Trace>(16));
    EXPECT_EQ(r.execTicks, 0u);
}

TEST(System, ConfigurableNodeCounts)
{
    for (unsigned n : {2u, 5u, 32u}) {
        DsmConfig cfg = smallConfig(n);
        DsmSystem sys(cfg);
        std::vector<Trace> ts(n);
        ts[n - 1] = {TraceOp::read(blockOn(cfg.proto, 0))};
        const RunResult r = sys.run(ts);
        EXPECT_EQ(r.reads, 1u);
    }
}
