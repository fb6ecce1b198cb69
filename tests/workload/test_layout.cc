/** @file Tests for Layout / Region / PhaseSchedule / TraceBuilder. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "workload/layout.hh"

using namespace mspdsm;

TEST(Layout, AllocAtPlacesRegionOnRequestedHome)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    for (NodeId home : {NodeId(0), NodeId(5), NodeId(15), NodeId(3)}) {
        const Region r = layout.allocAt(home, 16);
        for (unsigned i = 0; i < r.blocks; ++i)
            EXPECT_EQ(cfg.homeOf(cfg.blockOf(r.addr(i))), home);
    }
}

TEST(Layout, RegionsNeverOverlap)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    const Region a = layout.allocAt(2, 8);
    const Region b = layout.allocAt(2, 8);
    EXPECT_GE(b.base, a.base + cfg.pageSize);
}

TEST(Layout, AddressesAreBlockAligned)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    const Region r = layout.allocAt(1, 4);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(r.addr(i) % cfg.blockSize, 0u);
        EXPECT_EQ(cfg.blockOf(r.addr(i)),
                  cfg.blockOf(r.addr(0)) + i);
    }
}

TEST(Layout, AllocSpreadsWithoutConstraint)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    const Region r = layout.alloc(cfg.blocksPerPage() * 3);
    EXPECT_EQ(r.blocks, cfg.blocksPerPage() * 3);
    // Spans three pages and therefore three homes.
    EXPECT_NE(cfg.homeOf(cfg.blockOf(r.addr(0))),
              cfg.homeOf(cfg.blockOf(
                  r.addr(cfg.blocksPerPage()))));
}

TEST(Layout, MultiPageHomedRegionKeepsOneHomeAndItsPages)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    const unsigned bpp = cfg.blocksPerPage();
    const Region r = layout.allocAt(2, 2 * bpp + 5); // three pages
    std::set<std::uint64_t> pages;
    for (unsigned i = 0; i < r.blocks; ++i) {
        EXPECT_EQ(cfg.homeOf(cfg.blockOf(r.addr(i))), 2) << i;
        EXPECT_EQ(r.addr(i) % cfg.blockSize, 0u);
        pages.insert(r.addr(i) / cfg.pageSize);
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
            EXPECT_EQ(pages.count(o.addr(i) / cfg.pageSize), 0u)
                << "page " << o.addr(i) / cfg.pageSize << " reused";
}

namespace
{

/** The default geometry: 32-byte blocks. */
const AddrMap defaultMap((ProtoConfig{}));

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
    TraceBuilder tb(defaultMap);
    tb.compute(10).read(0x100).write(0x200).barrier();
    std::size_t src = 0;
    const PackedTrace t = take(tb, &src);
    EXPECT_EQ(src, 4u);
    // The compute folds into the read as its prefix.
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].kind(), OpKind::Read);
    EXPECT_EQ(t[0].block(), 0x100u / 32);
    EXPECT_EQ(t[0].delay(), 10u);
    EXPECT_EQ(t[1].kind(), OpKind::Write);
    EXPECT_EQ(t[1].block(), 0x200u / 32);
    EXPECT_EQ(t[1].delay(), 0u);
    EXPECT_EQ(t[2].kind(), OpKind::Barrier);
}

TEST(TraceBuilder, ZeroComputeIsElided)
{
    TraceBuilder tb(defaultMap);
    tb.compute(0).read(0x40);
    EXPECT_EQ(tb.sourceOps(), 1u);
    const PackedTrace t = take(tb);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].delay(), 0u);
}

TEST(PhaseSchedule, EmitsInTimeOrderWithGaps)
{
    PhaseSchedule sched;
    sched.at(100, TraceOp::read(0x40));
    sched.at(20, TraceOp::write(0x80));
    TraceBuilder tb(defaultMap);
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
    sched.at(50, TraceOp::read(0x1 * 32));
    sched.at(50, TraceOp::read(0x2 * 32));
    sched.at(50, TraceOp::read(0x3 * 32));
    TraceBuilder tb(defaultMap);
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
        sched.at(50, TraceOp::read(Addr{i} * 32));
    TraceBuilder many(defaultMap);
    sched.emit(many);
    const PackedTrace m = take(many);
    ASSERT_EQ(m.size(), 64u);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(m[i].block(), BlockId{i}) << i;
}

TEST(PhaseSchedule, EmitResetsForReuse)
{
    PhaseSchedule sched;
    sched.at(10, TraceOp::read(0x40));
    TraceBuilder tb(defaultMap);
    sched.emit(tb);
    sched.at(5, TraceOp::write(0x80));
    sched.emit(tb);
    std::size_t src = 0;
    const PackedTrace t = take(tb, &src);
    EXPECT_EQ(src, 4u);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].kind(), OpKind::Read);
    EXPECT_EQ(t[1].kind(), OpKind::Write);
    EXPECT_EQ(t[1].delay(), 5u);
}
