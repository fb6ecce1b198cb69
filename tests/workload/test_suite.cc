/** @file Structural tests of the seven application generators. */

#include <gtest/gtest.h>

#include <set>

#include "workload/suite.hh"

using namespace mspdsm;

namespace
{

AppParams
smallParams()
{
    AppParams p;
    p.numProcs = 16;
    p.scale = 0.25;
    p.iterations = 3;
    return p;
}

/** Count packed accesses and barriers across all traces. */
struct OpCounts
{
    std::uint64_t reads = 0, writes = 0, barriers = 0;
};

OpCounts
count(const Workload &w)
{
    OpCounts c;
    for (const PackedTrace &t : w.ops) {
        for (const CompiledOp &op : t) {
            c.reads += op.kind() == OpKind::Read;
            c.writes += op.kind() == OpKind::Write;
            c.barriers += op.kind() == OpKind::Barrier;
        }
    }
    return c;
}

} // namespace

TEST(Suite, HasSevenApplicationsInPaperOrder)
{
    const auto &suite = appSuite();
    ASSERT_EQ(suite.size(), 7u);
    EXPECT_EQ(suite[0].name, "appbt");
    EXPECT_EQ(suite[1].name, "barnes");
    EXPECT_EQ(suite[2].name, "em3d");
    EXPECT_EQ(suite[3].name, "moldyn");
    EXPECT_EQ(suite[4].name, "ocean");
    EXPECT_EQ(suite[5].name, "tomcatv");
    EXPECT_EQ(suite[6].name, "unstructured");
}

TEST(Suite, Table2InputsRecorded)
{
    for (const AppInfo &info : appSuite()) {
        EXPECT_FALSE(info.paperInput.empty()) << info.name;
        EXPECT_GT(info.paperIters, 0u) << info.name;
        EXPECT_GT(info.defaultIters, 0u) << info.name;
    }
}

TEST(Suite, MakeAppRejectsUnknown)
{
    EXPECT_DEATH(makeApp("notanapp", smallParams()), "unknown");
}

TEST(Suite, EveryAppGeneratesOneTracePerProcessor)
{
    // Small machines included: barnes once drew three distinct fixed
    // readers besides the writer by rejection sampling, which never
    // terminated below four nodes.
    for (unsigned procs : {1u, 2u, 3u, 4u, 16u}) {
        AppParams p = smallParams();
        p.numProcs = procs;
        p.proto.numNodes = procs;
        for (const AppInfo &info : appSuite()) {
            const Workload w = makeApp(info.name, p);
            EXPECT_EQ(w.name, info.name);
            EXPECT_EQ(w.ops.size(), procs) << info.name;
            for (const PackedTrace &t : w.ops)
                EXPECT_FALSE(t.empty()) << info.name << " " << procs;
        }
    }
}

TEST(Suite, BarrierCountsMatchAcrossProcessors)
{
    // Mismatched barrier counts would deadlock the simulation.
    for (const AppInfo &info : appSuite()) {
        const Workload w = makeApp(info.name, smallParams());
        std::uint64_t expected = ~0ull;
        for (const PackedTrace &t : w.ops) {
            std::uint64_t n = 0;
            for (const CompiledOp &op : t)
                n += op.kind() == OpKind::Barrier;
            if (expected == ~0ull)
                expected = n;
            EXPECT_EQ(n, expected) << info.name;
        }
    }
}

TEST(Suite, EveryAppCommunicates)
{
    for (const AppInfo &info : appSuite()) {
        const Workload w = makeApp(info.name, smallParams());
        const OpCounts c = count(w);
        EXPECT_GT(c.reads, 0u) << info.name;
        EXPECT_GT(c.writes, 0u) << info.name;
    }
}

TEST(Suite, DeterministicForFixedSeed)
{
    for (const AppInfo &info : appSuite()) {
        const Workload a = makeApp(info.name, smallParams());
        const Workload b = makeApp(info.name, smallParams());
        EXPECT_EQ(a.sourceOps, b.sourceOps) << info.name;
        ASSERT_EQ(a.ops.size(), b.ops.size());
        for (std::size_t q = 0; q < a.ops.size(); ++q) {
            ASSERT_EQ(a.ops[q].size(), b.ops[q].size()) << info.name;
            for (std::size_t i = 0; i < a.ops[q].size(); ++i)
                EXPECT_EQ(a.ops[q][i].bits, b.ops[q][i].bits);
        }
    }
}

TEST(Suite, SeedChangesRandomizedApps)
{
    AppParams p1 = smallParams();
    AppParams p2 = smallParams();
    p2.seed = 999;
    // barnes and unstructured are randomized; their traces differ.
    for (const char *name : {"barnes", "unstructured"}) {
        const Workload a = makeApp(name, p1);
        const Workload b = makeApp(name, p2);
        bool differ = false;
        for (std::size_t q = 0; q < a.ops.size() && !differ; ++q)
            differ = a.ops[q] != b.ops[q];
        EXPECT_TRUE(differ) << name;
    }
}

TEST(Suite, ScaleGrowsFootprint)
{
    AppParams small = smallParams();
    AppParams big = smallParams();
    big.scale = 1.0;
    for (const AppInfo &info : appSuite()) {
        std::set<BlockId> saddr, baddr;
        const Workload ws = makeApp(info.name, small);
        const Workload wb = makeApp(info.name, big);
        for (const PackedTrace &t : ws.ops)
            for (const CompiledOp &op : t)
                if (op.isAccess())
                    saddr.insert(op.block());
        for (const PackedTrace &t : wb.ops)
            for (const CompiledOp &op : t)
                if (op.isAccess())
                    baddr.insert(op.block());
        EXPECT_GT(baddr.size(), saddr.size()) << info.name;
    }
}

TEST(Suite, Em3dProducersOwnTheirRegions)
{
    // Every block written by processor q in em3d is homed at q (the
    // layout property SWI relies on).
    ProtoConfig proto;
    const Workload w = makeApp("em3d", smallParams());
    for (unsigned q = 0; q < w.ops.size(); ++q) {
        for (const CompiledOp &op : w.ops[q]) {
            if (op.kind() == OpKind::Write) {
                EXPECT_EQ(proto.homeOf(op.block()), q);
            }
        }
    }
}

TEST(Suite, BarnesHasZeroJitterPerPaper)
{
    const Workload w = makeApp("barnes", smallParams());
    EXPECT_EQ(w.netJitter, 0u);
    const Workload e = makeApp("em3d", smallParams());
    EXPECT_GT(e.netJitter, 0u);
}

TEST(Suite, IterationsParameterScalesLength)
{
    AppParams p3 = smallParams();
    AppParams p6 = smallParams();
    p6.iterations = 6;
    for (const AppInfo &info : appSuite()) {
        const OpCounts c3 = count(makeApp(info.name, p3));
        const OpCounts c6 = count(makeApp(info.name, p6));
        EXPECT_GT(c6.reads, c3.reads) << info.name;
    }
}
