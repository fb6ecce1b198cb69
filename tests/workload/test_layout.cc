/** @file Tests for Layout / Region / PhaseSchedule / TraceBuilder. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "base/random.hh"

#include "workload/layout.hh"

using namespace mspdsm;

TEST(Layout, AllocAtPlacesRegionOnRequestedHome)
{
    ProtoConfig cfg;
    Workload w;
    Layout layout(cfg, w);
    for (NodeId home : {NodeId(0), NodeId(5), NodeId(15), NodeId(3)}) {
        const Region r = layout.allocAt(home, 16);
        for (unsigned i = 0; i < r.blocks; ++i)
            EXPECT_EQ(cfg.homeOf(w.blocks.at(r.block(i))), home);
    }
}

TEST(Layout, NumbersBlocksInAllocationOrder)
{
    ProtoConfig cfg;
    Workload w;
    Layout layout(cfg, w);
    EXPECT_EQ(w.blockSize, cfg.blockSize);
    const Region a = layout.allocAt(2, 8);
    const Region b = layout.alloc(3);
    EXPECT_EQ(a.first, 0u);
    EXPECT_EQ(b.first, 8u);
    EXPECT_EQ(b.block(2), 10u);
    EXPECT_EQ(w.blocks.size(), 11u);
}

TEST(Layout, RegionsNeverOverlap)
{
    ProtoConfig cfg;
    Workload w;
    Layout layout(cfg, w);
    const Region a = layout.allocAt(2, 8);
    const Region b = layout.allocAt(2, 8);
    EXPECT_GE(w.blocks[b.block(0)] * cfg.blockSize,
              w.blocks[a.block(0)] * cfg.blockSize + cfg.pageSize);
}

TEST(Layout, AddressesAreBlockAligned)
{
    // A source id is a block number, so the address it stands for is
    // block-aligned; a one-page region's blocks are consecutive.
    ProtoConfig cfg;
    Workload w;
    Layout layout(cfg, w);
    const Region r = layout.allocAt(1, 4);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(w.blocks[r.block(i)], w.blocks[r.block(0)] + i);
}

TEST(Layout, AllocSpreadsWithoutConstraint)
{
    ProtoConfig cfg;
    Workload w;
    Layout layout(cfg, w);
    const Region r = layout.alloc(cfg.blocksPerPage() * 3);
    EXPECT_EQ(r.blocks, cfg.blocksPerPage() * 3);
    // Spans three pages and therefore three homes.
    EXPECT_NE(cfg.homeOf(w.blocks[r.block(0)]),
              cfg.homeOf(w.blocks[r.block(cfg.blocksPerPage())]));
}

TEST(Layout, MultiPageHomedRegionKeepsOneHomeAndItsPages)
{
    ProtoConfig cfg;
    Workload w;
    Layout layout(cfg, w);
    const unsigned bpp = cfg.blocksPerPage();
    const auto pageOf = [&](BlockId ord) { return w.blocks[ord] / bpp; };
    const Region r = layout.allocAt(2, 2 * bpp + 5); // three pages
    std::set<std::uint64_t> pages;
    for (unsigned i = 0; i < r.blocks; ++i) {
        EXPECT_EQ(cfg.homeOf(w.blocks[r.block(i)]), 2) << i;
        pages.insert(pageOf(r.block(i)));
    }
    ASSERT_EQ(pages.size(), 3u);

    // No later region, homed or not, may land on any of those pages.
    std::vector<Region> later;
    for (NodeId h = 0; h < cfg.numNodes; ++h)
        for (int k = 0; k < 3; ++k)
            later.push_back(layout.allocAt(h, bpp / 2));
    later.push_back(layout.alloc(3 * bpp));
    for (const Region &o : later)
        for (unsigned i = 0; i < o.blocks; ++i)
            EXPECT_EQ(pages.count(pageOf(o.block(i))), 0u)
                << "page " << pageOf(o.block(i)) << " reused";
}

namespace
{

/** @p tb's packed trace; @p sourceOps gets its source op count. */
PackedTrace
take(TraceBuilder &tb, std::size_t *sourceOps = nullptr)
{
    Workload w;
    tb.appendTo(w);
    if (sourceOps)
        *sourceOps = w.sourceOps;
    return w.ops.at(0);
}

} // namespace

TEST(TraceBuilder, AccumulatesOps)
{
    TraceBuilder tb;
    tb.compute(10).read(8).write(16).barrier();
    std::size_t src = 0;
    const PackedTrace t = take(tb, &src);
    EXPECT_EQ(src, 4u);
    // The compute folds into the read as its prefix.
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].kind(), OpKind::Read);
    EXPECT_EQ(t[0].block(), 8u);
    EXPECT_EQ(t[0].delay(), 10u);
    EXPECT_EQ(t[1].kind(), OpKind::Write);
    EXPECT_EQ(t[1].block(), 16u);
    EXPECT_EQ(t[1].delay(), 0u);
    EXPECT_EQ(t[2].kind(), OpKind::Barrier);
}

TEST(TraceBuilder, ZeroComputeIsElided)
{
    TraceBuilder tb;
    tb.compute(0).read(2);
    EXPECT_EQ(tb.sourceOps(), 1u);
    const PackedTrace t = take(tb);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].delay(), 0u);
}

TEST(PhaseSchedule, EmitsInTimeOrderWithGaps)
{
    PhaseSchedule sched;
    sched.read(100, 2);
    sched.write(20, 4);
    TraceBuilder tb;
    sched.emit(tb);
    std::size_t src = 0;
    const PackedTrace t = take(tb, &src);
    EXPECT_EQ(src, 4u); // two gaps and two accesses
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].kind(), OpKind::Write);
    EXPECT_EQ(t[0].delay(), 20u);
    EXPECT_EQ(t[1].kind(), OpKind::Read);
    EXPECT_EQ(t[1].delay(), 80u);
}

TEST(PhaseSchedule, StableForEqualTimes)
{
    PhaseSchedule sched;
    sched.read(50, 1);
    sched.read(50, 2);
    sched.read(50, 3);
    TraceBuilder tb;
    sched.emit(tb);
    const PackedTrace t = take(tb);
    ASSERT_EQ(t.size(), 3u); // three reads, the first after the gap
    EXPECT_EQ(t[0].delay(), 50u);
    EXPECT_EQ(t[0].block(), 0x1u);
    EXPECT_EQ(t[1].block(), 0x2u);
    EXPECT_EQ(t[2].block(), 0x3u);

    // Three ties alone do not pin stability: below 16 items an
    // unstable std::sort falls back to insertion sort, which keeps
    // ties in order too. 64 ties do.
    for (unsigned i = 0; i < 64; ++i)
        sched.read(50, i);
    TraceBuilder many;
    sched.emit(many);
    const PackedTrace m = take(many);
    ASSERT_EQ(m.size(), 64u);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(m[i].block(), BlockId{i}) << i;
}

TEST(PhaseSchedule, EmitResetsForReuse)
{
    PhaseSchedule sched;
    sched.read(10, 2);
    TraceBuilder tb;
    sched.emit(tb);
    sched.write(5, 4);
    sched.emit(tb);
    std::size_t src = 0;
    const PackedTrace t = take(tb, &src);
    EXPECT_EQ(src, 4u);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].kind(), OpKind::Read);
    EXPECT_EQ(t[1].kind(), OpKind::Write);
    EXPECT_EQ(t[1].delay(), 5u);
}

/**
 * The radix emit against a std::stable_sort reference: random phases
 * with many ties, offsets past 2^16 (a third radix byte) and up to
 * offsetMax, and empty phases, through one reused schedule.
 */
TEST(PhaseSchedule, MatchesStableSortReference)
{
    struct Item
    {
        Tick t;
        bool write;
        BlockId blk;
    };
    Rng rng(7);
    PhaseSchedule sched;
    for (int phase = 0; phase < 200; ++phase) {
        const unsigned n = static_cast<unsigned>(rng.uniform(0, 300));
        const Tick span = phase % 4 == 0   ? 16
                          : phase % 4 == 1 ? 9000
                          : phase % 4 == 2 ? Tick{1} << 17
                                           : PhaseSchedule::offsetMax;
        std::vector<Item> items;
        for (unsigned i = 0; i < n; ++i) {
            const Item it{rng.uniform(0, span), rng.chance(0.5),
                          rng.uniform(0, CompiledOp::blockMax)};
            items.push_back(it);
            if (it.write)
                sched.write(it.t, it.blk);
            else
                sched.read(it.t, it.blk);
        }
        TraceBuilder got;
        sched.emit(got);

        std::stable_sort(items.begin(), items.end(),
                         [](const Item &a, const Item &b) {
                             return a.t < b.t;
                         });
        TraceBuilder want;
        Tick now = 0;
        for (const Item &it : items) {
            want.compute(it.t - now);
            now = it.t;
            if (it.write)
                want.write(it.blk);
            else
                want.read(it.blk);
        }
        std::size_t gotSrc = 0, wantSrc = 0;
        ASSERT_EQ(take(got, &gotSrc), take(want, &wantSrc))
            << "phase " << phase << " of " << n;
        EXPECT_EQ(gotSrc, wantSrc);
    }
    EXPECT_DEATH(sched.read(PhaseSchedule::offsetMax + 1, 0),
                 "phase offset 1073741824 out of range");
}

/**
 * A repeated period appends the ops re-issuing its calls would, with
 * their source ops, however often it is repeated.
 */
TEST(TraceBuilder, RepeatSinceCopiesThePeriod)
{
    const auto period = [](TraceBuilder &tb) {
        tb.barrier().read(3).compute(40).write(5).compute(300);
    };
    TraceBuilder once, repeated;
    for (TraceBuilder *tb : {&once, &repeated})
        tb->read(1).compute(7);
    for (int i = 0; i < 5; ++i)
        period(once);
    period(repeated);
    TraceBuilder::Mark m = repeated.mark();
    period(repeated);
    for (int i = 0; i < 3; ++i) {
        const TraceBuilder::Mark last = repeated.mark();
        repeated.repeatSince(m);
        m = last;
    }
    EXPECT_EQ(repeated.sourceOps(), once.sourceOps());
    std::size_t onceSrc = 0, repeatedSrc = 0;
    EXPECT_EQ(take(repeated, &repeatedSrc), take(once, &onceSrc));
    EXPECT_EQ(repeatedSrc, onceSrc);
}

/** A period whose pending delay differs at its two ends would not
 * repeat exactly, so it panics. */
TEST(TraceBuilder, RepeatSincePanicsOnPendingMismatch)
{
    TraceBuilder tb;
    const TraceBuilder::Mark m = tb.mark(); // nothing pending
    tb.read(1).compute(12);
    EXPECT_DEATH(tb.repeatSince(m),
                 "starts with 0 pending cycles but ends with 12");
    tb.write(2); // the period now ends with nothing pending
    tb.repeatSince(m);
    EXPECT_EQ(take(tb).size(), 4u);
}
