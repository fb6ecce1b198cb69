/** @file Trace compilation: packed-op round trips across the whole
 * app suite, compute fusion and prefix folding, and the packed layout
 * itself. */

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

    const CompiledOp r = CompiledOp::access(OpKind::Read, 0x234567, 0);
    EXPECT_EQ(r.kind(), OpKind::Read);
    EXPECT_EQ(r.block(), 0x234567u);
    EXPECT_EQ(r.delay(), 0u);

    const CompiledOp p = CompiledOp::access(OpKind::Read, 7, 200);
    EXPECT_EQ(p.kind(), OpKind::Read);
    EXPECT_EQ(p.block(), 7u);
    EXPECT_EQ(p.delay(), 200u);

    const CompiledOp b = CompiledOp::make(OpKind::Barrier, 0);
    EXPECT_EQ(b.kind(), OpKind::Barrier);

    // The payload field holds the largest fused delay the compiler
    // accepts, and an access's two fields their largest values
    // without bleeding into each other or the kind.
    ASSERT_EQ(CompiledOp::blockMax, (1u << 22) - 1);
    ASSERT_EQ(CompiledOp::delayMax, 255u);
    const CompiledOp c2 =
        CompiledOp::make(OpKind::Compute, CompiledOp::payloadMax);
    EXPECT_EQ(c2.payload(), CompiledOp::payloadMax);
    EXPECT_EQ(c2.kind(), OpKind::Compute);
    const CompiledOp m = CompiledOp::access(
        OpKind::Write, CompiledOp::blockMax, CompiledOp::delayMax);
    EXPECT_EQ(m.block(), CompiledOp::blockMax);
    EXPECT_EQ(m.delay(), CompiledOp::delayMax);
    EXPECT_EQ(m.kind(), OpKind::Write);
    const CompiledOp m0 =
        CompiledOp::access(OpKind::Write, CompiledOp::blockMax, 0);
    EXPECT_EQ(m0.delay(), 0u);
    const CompiledOp d0 =
        CompiledOp::access(OpKind::Read, 0, CompiledOp::delayMax);
    EXPECT_EQ(d0.block(), 0u);
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
    // 8 + 150 fuse, then fold into the read as its prefix; 6 + 500
    // fuse but stay standalone before the barrier.
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].kind(), OpKind::Read);
    EXPECT_EQ(out[0].delay(), 158u);
    EXPECT_EQ(out[1].kind(), OpKind::Compute);
    EXPECT_EQ(out[1].payload(), 506u);
    EXPECT_EQ(out[2].kind(), OpKind::Barrier);
}

TEST(CompiledTrace, PrefixFoldStopsAtDelayMax)
{
    const AddrMap map((ProtoConfig{}));
    const auto compile = [&](Trace t) {
        const CompiledWorkload cw(std::vector<Trace>{t}, map);
        const CompiledTrace out = cw.trace(0);
        EXPECT_EQ(decodeTrace(cw, 0), canonicalTrace(t, map));
        return std::vector<CompiledOp>(out.begin(), out.end());
    };

    // delayMax folds, also when fused from a run.
    for (const Trace &t :
         {Trace{TraceOp::compute(255), TraceOp::write(64)},
          Trace{TraceOp::compute(200), TraceOp::compute(55),
                TraceOp::write(64)}}) {
        const std::vector<CompiledOp> ops = compile(t);
        ASSERT_EQ(ops.size(), 1u);
        EXPECT_EQ(ops[0].kind(), OpKind::Write);
        EXPECT_EQ(ops[0].delay(), 255u);
    }

    // One more stays a standalone Compute before an unprefixed access.
    const std::vector<CompiledOp> big =
        compile({TraceOp::compute(200), TraceOp::compute(56),
                 TraceOp::read(64)});
    ASSERT_EQ(big.size(), 2u);
    EXPECT_EQ(big[0].kind(), OpKind::Compute);
    EXPECT_EQ(big[0].payload(), 256u);
    EXPECT_EQ(big[1].kind(), OpKind::Read);
    EXPECT_EQ(big[1].delay(), 0u);

    // Small delays before a barrier or at the end stay standalone;
    // an access with no compute before it carries no prefix.
    const std::vector<CompiledOp> rest =
        compile({TraceOp::read(0), TraceOp::compute(3),
                 TraceOp::barrier(), TraceOp::compute(4)});
    ASSERT_EQ(rest.size(), 4u);
    EXPECT_EQ(rest[0].delay(), 0u);
    EXPECT_EQ(rest[1], CompiledOp::make(OpKind::Compute, 3));
    EXPECT_EQ(rest[2].kind(), OpKind::Barrier);
    EXPECT_EQ(rest[3], CompiledOp::make(OpKind::Compute, 4));
}

/**
 * The block field's edge: with 1024 nodes of 4096 blocks a page, home
 * 1023's 4096th block is dense id 2^22 - 1 and home 0's 4097th is
 * 2^22, the first id the packed access cannot hold.
 */
TEST(CompiledTrace, BlockIdsUpToBlockMaxCompile)
{
    ProtoConfig cfg;
    cfg.numNodes = 1024;
    cfg.pageSize = 4096 * cfg.blockSize;
    const AddrMap map(cfg);
    const Addr page = cfg.pageSize;

    Trace last;
    for (Addr b = 0; b < 4096; ++b)
        last.push_back(TraceOp::read(1023 * page + b * cfg.blockSize));
    const CompiledWorkload ok(std::vector<Trace>{last}, map);
    EXPECT_EQ(ok.trace(0)[4095].block(), CompiledOp::blockMax);
    EXPECT_EQ(decodeTrace(ok, 0), last);

    Trace over;
    for (Addr b = 0; b < 4096; ++b)
        over.push_back(TraceOp::read(b * cfg.blockSize));
    over.push_back(TraceOp::read(1024 * page));
    ASSERT_EQ(map.blockAt(0, 4096), BlockId{CompiledOp::blockMax} + 1);
    EXPECT_DEATH(CompiledWorkload(std::vector<Trace>{over}, map),
                 "block id 4194304 overflows the packed op");
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
 * scale CI runs compiles without truncating a field (the round trip
 * holds), the largest block stays 64x below blockMax and the largest
 * compute far below payloadMax, and the fold is complete: no Compute
 * the fold could hold is left standing before an access.
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
        BlockId largestBlock = 0;
        std::uint32_t largestCompute = 0;
        for (std::size_t i = 0; i < cw.numTraces(); ++i) {
            const CompiledTrace t = cw.trace(i);
            for (std::size_t k = 0; k < t.size(); ++k) {
                if (t[k].kind() == OpKind::Compute) {
                    largestCompute =
                        std::max(largestCompute, t[k].payload());
                    const bool beforeAccess =
                        k + 1 < t.size() &&
                        (t[k + 1].kind() == OpKind::Read ||
                         t[k + 1].kind() == OpKind::Write);
                    ASSERT_FALSE(beforeAccess &&
                                 t[k].payload() <= CompiledOp::delayMax)
                        << info.name << " proc " << i << " op " << k;
                } else if (t[k].kind() != OpKind::Barrier) {
                    largestBlock = std::max(largestBlock, t[k].block());
                }
            }
            ASSERT_EQ(decodeTrace(cw, i), canonicalTrace(w.traces[i], map))
                << info.name << " proc " << i;
        }
        EXPECT_GT(largestBlock, 0u) << info.name;
        EXPECT_LE(largestBlock, CompiledOp::blockMax / 64) << info.name;
        EXPECT_GT(largestCompute, 0u) << info.name;
        EXPECT_LE(largestCompute, CompiledOp::payloadMax / 1024)
            << info.name;
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
    // Compute fusion and prefix folding only ever shrink the stream.
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
                        const BlockId blk = op.block();
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
