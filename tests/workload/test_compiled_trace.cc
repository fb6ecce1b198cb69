/** @file Trace compilation: the packed layout itself, compute fusion
 * and prefix folding at emit time, the renumbering pass, round trips
 * across the whole app suite, and a golden pin of the front end. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "workload/compiled_trace.hh"
#include "workload/layout.hh"
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
 * The block field's edge is the source id: with 1024 nodes of 4096
 * blocks a page, home 1023's 4096th block is source (and dense) id
 * 2^22 - 1, and a source id of 2^22 panics even when its dense id
 * would fit -- the builder never truncates one.
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

    // Alone, source id 2^22 would be home 0's first block, dense id 0.
    const Trace over{TraceOp::read(1024 * page)};
    ASSERT_EQ(map.blockOf(1024 * page), BlockId{CompiledOp::blockMax} + 1);
    EXPECT_DEATH(CompiledWorkload(std::vector<Trace>{over}, map),
                 "block id 4194304 overflows the packed op");
    TraceBuilder tb(map);
    EXPECT_DEATH(tb.write(1024 * page),
                 "block id 4194304 overflows the packed op");
}

/**
 * A workload holds source ids for one block size; compiling it for
 * another would silently mean other blocks.
 */
TEST(CompiledTrace, BlockSizeMismatchIsFatal)
{
    const AppParams p = params(0.25, 1);
    const Workload w = makeEm3d(p);
    ASSERT_EQ(w.blockSize, p.proto.blockSize);
    ProtoConfig other = p.proto;
    other.blockSize = 2 * p.proto.blockSize;
    EXPECT_DEATH(CompiledWorkload(w, AddrMap(other)),
                 "workload generated for 32-byte blocks, compiled for "
                 "64");
}

/**
 * The builder counts every op it is handed, the figure perfbench
 * divides by; the packed form drops zero delays and folds the rest.
 */
TEST(CompiledTrace, BuilderCountsSourceOps)
{
    const AddrMap map((ProtoConfig{}));
    TraceBuilder tb(map);
    tb.compute(0).compute(5).compute(7).read(64).barrier().write(96);
    EXPECT_EQ(tb.sourceOps(), 5u); // compute(0) emits nothing
    tb.add(TraceOp::compute(0)).add(TraceOp::compute(300));
    EXPECT_EQ(tb.sourceOps(), 7u); // a hand-written zero op counts
    Workload w;
    tb.appendTo(w);
    EXPECT_EQ(tb.sourceOps(), 0u);
    EXPECT_EQ(w.sourceOps, 7u);
    EXPECT_EQ(w.blockSize, map.blockSizeBytes());
    ASSERT_EQ(w.ops.size(), 1u);
    const PackedTrace want{CompiledOp::access(OpKind::Read, 2, 12),
                           CompiledOp::make(OpKind::Barrier, 0),
                           CompiledOp::access(OpKind::Write, 3, 0),
                           CompiledOp::make(OpKind::Compute, 300)};
    EXPECT_EQ(w.ops[0], want);

    // The bare-trace compile takes the same count.
    const Trace t{TraceOp::compute(0), TraceOp::read(64),
                  TraceOp::compute(0)};
    const CompiledWorkload cw(std::vector<Trace>{t}, map);
    EXPECT_EQ(cw.sourceOps(), 3u);
    EXPECT_EQ(cw.totalOps(), 1u);
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
 * scale CI runs compiles without truncating a field (each compiled op
 * is its source op renumbered), the largest dense block stays 64x
 * below blockMax and never above the largest source id, the largest
 * compute far below payloadMax, and the fold is complete: no Compute
 * the fold could hold is left standing before an access. Source ids
 * are the binding limit: ocean's multi-page regions reach 1,936,351
 * here, 2.2x below blockMax.
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
        BlockId largestBlock = 0, largestRaw = 0;
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
            // The compile only renumbers: each op is its source op
            // with the block swapped for one the raw table inverts.
            const PackedTrace &src = w.ops[i];
            ASSERT_EQ(t.size(), src.size()) << info.name;
            for (std::size_t k = 0; k < t.size(); ++k) {
                if (!src[k].isAccess()) {
                    ASSERT_EQ(t[k], src[k]) << info.name;
                    continue;
                }
                largestRaw = std::max(largestRaw, src[k].block());
                ASSERT_EQ(t[k], CompiledOp::access(src[k].kind(),
                                                   t[k].block(),
                                                   src[k].delay()));
                ASSERT_EQ(cw.rawBlock(t[k].block()), src[k].block())
                    << info.name << " proc " << i << " op " << k;
            }
        }
        EXPECT_GT(largestBlock, 0u) << info.name;
        EXPECT_LE(largestBlock, CompiledOp::blockMax / 64) << info.name;
        EXPECT_LE(largestBlock, largestRaw) << info.name;
        EXPECT_LE(largestRaw, CompiledOp::blockMax / 2) << info.name;
        EXPECT_GT(largestCompute, 0u) << info.name;
        EXPECT_LE(largestCompute, CompiledOp::payloadMax / 1024)
            << info.name;
    }
}

namespace
{

/** Expect @p a and @p b to hold the same arena, word for word, and
 * the same dense -> raw table under @p map. */
void
expectSameWorkload(const CompiledWorkload &a, const CompiledWorkload &b,
                   const AddrMap &map, const std::string &what)
{
    ASSERT_EQ(a.numTraces(), b.numTraces()) << what;
    ASSERT_EQ(a.totalOps(), b.totalOps()) << what;
    for (std::size_t i = 0; i < a.numTraces(); ++i) {
        const CompiledTrace ta = a.trace(i), tb = b.trace(i);
        ASSERT_EQ(ta.size(), tb.size()) << what << " proc " << i;
        for (std::size_t k = 0; k < ta.size(); ++k)
            ASSERT_EQ(ta[k], tb[k]) << what << " proc " << i << " op " << k;
    }
    for (unsigned h = 0; h < map.numNodes(); ++h) {
        const NodeId home = NodeId(h);
        ASSERT_EQ(a.blocksAt(home), b.blocksAt(home)) << what;
        for (std::size_t j = 0; j < a.blocksAt(home); ++j)
            ASSERT_EQ(a.rawBlock(map.blockAt(home, j)),
                      b.rawBlock(map.blockAt(home, j)))
                << what;
    }
}

} // namespace

/**
 * One compile path: for every generator, the decoded TraceOp form of
 * its compiled workload is canonical (fusion and folding are already
 * complete), and feeding it back through the bare-trace constructor
 * -- a TraceBuilder, then the renumbering pass -- gives the same
 * arena and the same dense -> raw table word for word. Decoding also
 * keeps every compute cycle and every access of the packed source.
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
            ASSERT_EQ(cw.numTraces(), w.ops.size()) << info.name;
            std::vector<Trace> decoded;
            for (std::size_t i = 0; i < w.ops.size(); ++i) {
                decoded.push_back(decodeTrace(cw, i));
                const Trace &d = decoded.back();
                ASSERT_EQ(canonicalTrace(d, map), d)
                    << info.name << " proc " << i << " scale " << scale;

                Tick cyc_src = 0, cyc_dec = 0;
                std::size_t mem_src = 0, mem_dec = 0;
                for (const CompiledOp &op : w.ops[i]) {
                    cyc_src += op.kind() == OpKind::Compute
                                   ? op.payload()
                                   : op.isAccess() ? op.delay() : 0;
                    mem_src += op.isAccess();
                }
                for (const TraceOp &op : d) {
                    cyc_dec += op.cycles();
                    mem_dec += op.kind() == OpKind::Read ||
                               op.kind() == OpKind::Write;
                }
                EXPECT_EQ(cyc_src, cyc_dec) << info.name;
                EXPECT_EQ(mem_src, mem_dec) << info.name;
            }
            const CompiledWorkload again(decoded, map);
            expectSameWorkload(cw, again, map, info.name);
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
                    const PackedTrace &src = w.ops[i];
                    ASSERT_EQ(t.size(), src.size()) << info.name;
                    for (std::size_t k = 0; k < t.size(); ++k) {
                        if (!t[k].isAccess())
                            continue;
                        const BlockId raw = src[k].block();
                        const BlockId blk = t[k].block();
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

namespace
{

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

/**
 * Golden pin of the whole front end (generation, fusion, folding and
 * renumbering): an FNV-1a hash over every arena word, the dense ->
 * raw table, sourceOps() and totalOps() of each app at its default
 * iterations, at 16 processors and scale 0.5 and at the 61-node cap
 * and scale 0.25. A front-end change that moves one word fails here;
 * the op counts are pinned on their own so such a failure says which
 * of them moved. sourceOps() is perfbench's throughput numerator.
 */
TEST(CompiledTrace, FrontEndGoldenHashes)
{
    struct Pin
    {
        unsigned procs;
        double scale;
        const char *app;
        std::size_t sourceOps, totalOps;
        std::uint64_t hash;
    };
    static const Pin pins[] = {
        {16, 0.5, "appbt", 37648, 18448, 0xf26f89142cbcf384ull},
        {16, 0.5, "barnes", 10168, 7437, 0xcc2b2f35c530fadaull},
        {16, 0.5, "em3d", 29136, 15376, 0xa1eaa700e8d199baull},
        {16, 0.5, "moldyn", 21376, 12496, 0x19db161d532646a8ull},
        {16, 0.5, "ocean", 18656, 10368, 0x21a999ad55ae6d38ull},
        {16, 0.5, "tomcatv", 18960, 9808, 0xac282428d68b7ae1ull},
        {16, 0.5, "unstructured", 21757, 12292, 0x5f338dac6046aa2full},
        {61, 0.25, "appbt", 77653, 41053, 0xaeedadc7757e4fa3ull},
        {61, 0.25, "barnes", 6730, 6137, 0x5eb1c446e95997b6ull},
        {61, 0.25, "em3d", 59841, 33001, 0xb65551bde801676cull},
        {61, 0.25, "moldyn", 72346, 43066, 0x838c0f8491c99c57ull},
        {61, 0.25, "ocean", 54595, 30195, 0xb4b1f24d7cfff9f8ull},
        {61, 0.25, "tomcatv", 38613, 20557, 0xbc4c86dd49cffd1aull},
        {61, 0.25, "unstructured", 58542, 34686, 0xb2db4502e5f05fc0ull},
    };
    for (const Pin &pin : pins) {
        AppParams p;
        p.numProcs = pin.procs;
        p.proto.numNodes = pin.procs;
        p.scale = pin.scale;
        const AddrMap map(p.proto);
        const CompiledWorkload cw(makeApp(pin.app, p), map);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::size_t i = 0; i < cw.numTraces(); ++i)
            for (const CompiledOp &op : cw.trace(i))
                h = fnv1a(h, op.bits);
        for (unsigned home = 0; home < pin.procs; ++home)
            for (std::size_t j = 0; j < cw.blocksAt(NodeId(home)); ++j)
                h = fnv1a(h, cw.rawBlock(map.blockAt(NodeId(home), j)));
        h = fnv1a(h, cw.sourceOps());
        h = fnv1a(h, cw.totalOps());
        EXPECT_EQ(cw.sourceOps(), pin.sourceOps)
            << pin.app << " at " << pin.procs;
        EXPECT_EQ(cw.totalOps(), pin.totalOps)
            << pin.app << " at " << pin.procs;
        EXPECT_EQ(h, pin.hash) << pin.app << " at " << pin.procs;
    }
}
