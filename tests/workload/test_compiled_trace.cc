/** @file Trace compilation: packed-op round trips across the whole
 * app suite, compute fusion, hit-eligibility annotation, and the
 * packed layout itself. */

#include <gtest/gtest.h>

#include <set>

#include "workload/compiled_trace.hh"
#include "workload/suite.hh"

using namespace mspdsm;

namespace
{

AppParams
params(double scale, unsigned iters = 2)
{
    AppParams p;
    p.scale = scale;
    p.iterations = iters;
    return p;
}

} // namespace

TEST(CompiledOp, PackedLayoutRoundTripsFields)
{
    const CompiledOp c = CompiledOp::make(OpKind::Compute, 52000);
    EXPECT_EQ(c.kind(), OpKind::Compute);
    EXPECT_EQ(c.payload(), 52000u);
    EXPECT_FALSE(c.hitEligible());

    const CompiledOp r = CompiledOp::make(OpKind::Read, 0x1234567, true);
    EXPECT_EQ(r.kind(), OpKind::Read);
    EXPECT_EQ(r.payload(), 0x1234567u);
    EXPECT_TRUE(r.hitEligible());

    const CompiledOp b = CompiledOp::make(OpKind::Barrier, 0);
    EXPECT_EQ(b.kind(), OpKind::Barrier);

    // The payload field holds the largest block id / fused delay the
    // compiler accepts.
    const CompiledOp m =
        CompiledOp::make(OpKind::Write, CompiledOp::payloadMax);
    EXPECT_EQ(m.payload(), CompiledOp::payloadMax);
    EXPECT_EQ(m.kind(), OpKind::Write);
}

TEST(CompiledTrace, ComputeFusionMergesRuns)
{
    const AddrMap map((ProtoConfig{}));
    Trace t{TraceOp::compute(8),  TraceOp::compute(150),
            TraceOp::read(32),    TraceOp::compute(6),
            TraceOp::compute(0), // dropped: timing no-op
            TraceOp::compute(500), TraceOp::barrier()};
    const CompiledWorkload cw(std::vector<Trace>{t}, map);
    const CompiledTrace out = cw.trace(0);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].kind(), OpKind::Compute);
    EXPECT_EQ(out[0].payload(), 158u);
    EXPECT_EQ(out[1].kind(), OpKind::Read);
    EXPECT_EQ(out[2].kind(), OpKind::Compute);
    EXPECT_EQ(out[2].payload(), 506u);
    EXPECT_EQ(out[3].kind(), OpKind::Barrier);
}

TEST(CompiledTrace, OversizedComputeDelaysPanicEvenWhenFused)
{
    // Regression: the fused branch used to sum payloads before the
    // range check, so a near-2^64 delay following a small one wrapped
    // the uint64 sum below payloadMax and compiled silently into a
    // tiny delay. Every compute operand must be validated first.
    const AddrMap map((ProtoConfig{}));
    const Tick huge = ~Tick{0} - 60; // wraps to 39 if summed with 100
    const Trace first{TraceOp::compute(huge)};
    EXPECT_DEATH(CompiledWorkload(std::vector<Trace>{first}, map),
                 "overflow");
    const Trace fused{TraceOp::compute(100), TraceOp::compute(huge)};
    EXPECT_DEATH(CompiledWorkload(std::vector<Trace>{fused}, map),
                 "overflow");
}

TEST(CompiledTrace, HitHintsReflectTraceHistory)
{
    const ProtoConfig cfg;
    const AddrMap map(cfg);
    const Addr a = 0, b = Addr{cfg.blockSize} * 7;
    Trace t{TraceOp::read(a),  // first touch: not eligible
            TraceOp::read(a),  // seen: eligible
            TraceOp::write(a), // never written: not eligible
            TraceOp::write(a), // written: eligible
            TraceOp::write(b), // first touch
            TraceOp::read(b)}; // seen (via the write): eligible
    const CompiledWorkload cw(std::vector<Trace>{t}, map);
    const CompiledTrace out = cw.trace(0);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_FALSE(out[0].hitEligible());
    EXPECT_TRUE(out[1].hitEligible());
    EXPECT_FALSE(out[2].hitEligible());
    EXPECT_TRUE(out[3].hitEligible());
    EXPECT_FALSE(out[4].hitEligible());
    EXPECT_TRUE(out[5].hitEligible());
}

/**
 * The satellite round-trip guarantee: decode(compile(t)) equals the
 * canonical form of t for every generator in the suite, and for the
 * repo's generators (block-aligned addresses, no zero delays) the
 * canonical form is operation-for-operation timing-identical to the
 * original: same op sequence with compute runs merged, identical
 * total compute cycles, identical memory/barrier ops.
 */
TEST(CompiledTrace, RoundTripAcrossAppSuiteAtTwoScales)
{
    for (const double scale : {0.25, 1.0}) {
        const AppParams p = params(scale);
        for (const AppInfo &info : appSuite()) {
            const Workload w = info.make([&] {
                AppParams q = p;
                q.iterations = info.defaultIters >= 2 ? 2 : 1;
                return q;
            }());
            const AddrMap map(p.proto);
            const CompiledWorkload cw(w, map);
            ASSERT_EQ(cw.numTraces(), w.traces.size()) << info.name;
            for (std::size_t i = 0; i < w.traces.size(); ++i) {
                const Trace decoded = decodeTrace(cw, i);
                const Trace canon = canonicalTrace(w.traces[i], map);
                ASSERT_EQ(decoded, canon)
                    << info.name << " proc " << i << " scale " << scale;

                // Timing equivalence of canonicalization itself:
                // cycles and op multiset are preserved.
                Tick cyc_orig = 0, cyc_canon = 0;
                std::size_t mem_orig = 0, mem_canon = 0;
                for (const TraceOp &op : w.traces[i]) {
                    cyc_orig += op.cycles;
                    mem_orig += op.kind == OpKind::Read ||
                                op.kind == OpKind::Write;
                }
                for (const TraceOp &op : canon) {
                    cyc_canon += op.cycles;
                    mem_canon += op.kind == OpKind::Read ||
                                 op.kind == OpKind::Write;
                }
                EXPECT_EQ(cyc_orig, cyc_canon) << info.name;
                EXPECT_EQ(mem_orig, mem_canon) << info.name;
            }
        }
    }
}

TEST(CompiledTrace, ArenaIsPackedAndSpansPartitionIt)
{
    const AppParams p = params(0.25);
    const Workload w = makeEm3d(p);
    const CompiledWorkload cw(w, AddrMap(p.proto));
    // Compute fusion only ever shrinks the stream.
    EXPECT_LE(cw.totalOps(), cw.sourceOps());
    EXPECT_GT(cw.totalOps(), 0u);
    std::size_t sum = 0;
    for (std::size_t i = 0; i < cw.numTraces(); ++i) {
        const CompiledTrace t = cw.trace(i);
        // Spans tile the arena contiguously in processor order.
        if (i > 0) {
            EXPECT_EQ(t.begin(),
                      cw.trace(i - 1).end());
        }
        sum += t.size();
    }
    EXPECT_EQ(sum, cw.totalOps());
}

/**
 * The dense numbering over the whole suite and the node-count range:
 * every compiled block keeps its source block's home, ids are unique
 * (and the raw table inverts them), and each home's local indices are
 * exactly 0 .. count_h - 1 -- what sizes the per-home tables.
 */
TEST(CompiledTrace, DenseNumberingKeepsHomesAcrossSuite)
{
    for (const double scale : {0.25, 2.0}) {
        for (const unsigned procs : {1u, 2u, 3u, 16u, 32u, 61u}) {
            AppParams p = params(scale, 1);
            p.numProcs = procs;
            p.proto.numNodes = procs;
            const AddrMap map(p.proto);
            for (const AppInfo &info : appSuite()) {
                const Workload w = info.make(p);
                const CompiledWorkload cw(w, map);
                ASSERT_EQ(cw.numNodes(), procs);
                std::set<BlockId> ids;
                std::vector<std::set<std::uint64_t>> locals(procs);
                for (std::size_t i = 0; i < cw.numTraces(); ++i) {
                    const CompiledTrace t = cw.trace(i);
                    const Trace &src = w.traces[i];
                    std::size_t k = 0; // next source memory op
                    for (const CompiledOp &op : t) {
                        if (op.kind() != OpKind::Read &&
                            op.kind() != OpKind::Write)
                            continue;
                        while (src[k].kind != OpKind::Read &&
                               src[k].kind != OpKind::Write)
                            ++k;
                        const BlockId raw = map.blockOf(src[k++].addr);
                        const BlockId blk = op.payload();
                        ASSERT_EQ(map.geometricHomeOf(blk),
                                  map.geometricHomeOf(raw))
                            << info.name << " procs " << procs;
                        ASSERT_EQ(cw.rawBlock(blk), raw) << info.name;
                        ids.insert(blk);
                        locals[map.geometricHomeOf(blk)].insert(
                            map.shardSlotOf(blk).local);
                    }
                }
                std::size_t total = 0;
                for (unsigned h = 0; h < procs; ++h) {
                    const std::size_t n = cw.blocksAt(NodeId(h));
                    total += n;
                    ASSERT_EQ(locals[h].size(), n) << info.name;
                    if (n > 0) {
                        EXPECT_EQ(*locals[h].begin(), 0u);
                        EXPECT_EQ(*locals[h].rbegin(), n - 1)
                            << info.name << " home " << h;
                    }
                }
                // Unique: one compiled id per distinct source block.
                EXPECT_EQ(ids.size(), total) << info.name;
            }
        }
    }
}

TEST(CompiledTrace, BlockOfFindsTouchedAddressesOnly)
{
    const ProtoConfig cfg;
    const AddrMap map(cfg);
    const Addr a = Addr{cfg.pageSize} * 3 + 5 * cfg.blockSize;
    const Addr b = Addr{cfg.pageSize} * 19; // home 3 as well
    const CompiledWorkload cw(
        std::vector<Trace>{{TraceOp::read(b), TraceOp::write(a)}}, map);
    // First-touch order within home 3: b, then a.
    EXPECT_EQ(cw.blockOf(b), map.blockAt(3, 0));
    EXPECT_EQ(cw.blockOf(a), map.blockAt(3, 1));
    EXPECT_EQ(cw.blockOf(a + cfg.blockSize), invalidBlock);
    EXPECT_EQ(cw.rawBlock(cw.blockOf(a)), map.blockOf(a));
}
