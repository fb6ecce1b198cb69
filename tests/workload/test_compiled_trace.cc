/** @file Trace compilation: packed-op round trips across the whole
 * app suite, compute fusion, and the packed layout itself. */

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(TraceOp, PackedLayoutRoundTripsFields)
{
    // Each field reads back from the one-word layout, and the fields
    // of the other kinds read as zero (what a default TraceOp held).
    const TraceOp zero = TraceOp::compute(0);
    EXPECT_EQ(zero, TraceOp());
    EXPECT_EQ(zero.kind(), OpKind::Compute);
    EXPECT_EQ(zero.cycles(), 0u);

    const TraceOp c = TraceOp::compute(200000);
    EXPECT_EQ(c.kind(), OpKind::Compute);
    EXPECT_EQ(c.cycles(), 200000u);
    EXPECT_EQ(c.addr(), 0u);

    const TraceOp r = TraceOp::read(0x12345640);
    EXPECT_EQ(r.kind(), OpKind::Read);
    EXPECT_EQ(r.addr(), 0x12345640u);
    EXPECT_EQ(r.cycles(), 0u);

    const TraceOp w = TraceOp::write(0);
    EXPECT_EQ(w.kind(), OpKind::Write);
    EXPECT_EQ(w.addr(), 0u);
    EXPECT_NE(w, TraceOp::read(0));

    const TraceOp b = TraceOp::barrier();
    EXPECT_EQ(b.kind(), OpKind::Barrier);
    EXPECT_EQ(b.addr(), 0u);
    EXPECT_EQ(b.cycles(), 0u);

    // The largest payload survives in every field.
    const std::uint64_t max = (std::uint64_t{1} << 62) - 1;
    ASSERT_EQ(TraceOp::payloadMax, max);
    EXPECT_EQ(TraceOp::compute(max).cycles(), max);
    EXPECT_EQ(TraceOp::read(max).addr(), max);
    EXPECT_EQ(TraceOp::write(max).kind(), OpKind::Write);
    EXPECT_EQ(TraceOp::write(max).addr(), max);

    // One more does not fit; it dies rather than wrap.
    EXPECT_DEATH(TraceOp::compute(max + 1), "overflows the packed op");
    EXPECT_DEATH(TraceOp::read(max + 1), "overflows the packed op");
}

TEST(CompiledOp, PackedLayoutRoundTripsFields)
{
    const CompiledOp c = CompiledOp::make(OpKind::Compute, 52000);
    EXPECT_EQ(c.kind(), OpKind::Compute);
    EXPECT_EQ(c.payload(), 52000u);

    const CompiledOp r = CompiledOp::make(OpKind::Read, 0x1234567);
    EXPECT_EQ(r.kind(), OpKind::Read);
    EXPECT_EQ(r.payload(), 0x1234567u);

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
    // range check, so an oversized delay following a small one could
    // compile silently. Every compute operand is validated first, and
    // the fused sum is checked again.
    const AddrMap map((ProtoConfig{}));
    const Tick huge = Tick{CompiledOp::payloadMax} + 1;
    const Trace first{TraceOp::compute(huge)};
    EXPECT_DEATH(CompiledWorkload(std::vector<Trace>{first}, map),
                 "overflow");
    const Trace fused{TraceOp::compute(100), TraceOp::compute(huge)};
    EXPECT_DEATH(CompiledWorkload(std::vector<Trace>{fused}, map),
                 "overflow");
    // Two in-range delays whose sum is not.
    const Trace sum{TraceOp::compute(CompiledOp::payloadMax),
                    TraceOp::compute(1)};
    EXPECT_DEATH(CompiledWorkload(std::vector<Trace>{sum}, map),
                 "fused compute delay overflows");
    // The largest delay itself still compiles.
    const CompiledWorkload ok(
        std::vector<Trace>{{TraceOp::compute(CompiledOp::payloadMax)}},
        map);
    EXPECT_EQ(ok.trace(0)[0].payload(), CompiledOp::payloadMax);
}

/**
 * The packed op's headroom: every app at the node cap and the largest
 * scale CI runs compiles without truncating a payload (the round trip
 * holds), and the largest payload stays far below payloadMax.
 */
TEST(CompiledTrace, LargestSuiteConfigFitsThePackedOp)
{
    AppParams p = params(8.0, 2);
    p.numProcs = 61;
    p.proto.numNodes = 61;
    const AddrMap map(p.proto);
    for (const AppInfo &info : appSuite()) {
        const Workload w = info.make(p);
        const CompiledWorkload cw(w, map);
        std::uint32_t largest = 0;
        for (std::size_t i = 0; i < cw.numTraces(); ++i) {
            for (const CompiledOp &op : cw.trace(i))
                largest = std::max(largest, op.payload());
            ASSERT_EQ(decodeTrace(cw, i), canonicalTrace(w.traces[i], map))
                << info.name << " proc " << i;
        }
        EXPECT_GT(largest, 0u) << info.name;
        EXPECT_LE(largest, CompiledOp::payloadMax / 1024) << info.name;
    }
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
                    cyc_orig += op.cycles();
                    mem_orig += op.kind() == OpKind::Read ||
                                op.kind() == OpKind::Write;
                }
                for (const TraceOp &op : canon) {
                    cyc_canon += op.cycles();
                    mem_canon += op.kind() == OpKind::Read ||
                                 op.kind() == OpKind::Write;
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
                        while (src[k].kind() != OpKind::Read &&
                               src[k].kind() != OpKind::Write)
                            ++k;
                        const BlockId raw = map.blockOf(src[k++].addr());
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
