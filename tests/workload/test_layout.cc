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

TEST(TraceBuilder, AccumulatesOps)
{
    TraceBuilder tb;
    tb.compute(10).read(0x100).write(0x200).barrier();
    const Trace t = tb.take();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].kind(), OpKind::Compute);
    EXPECT_EQ(t[1].kind(), OpKind::Read);
    EXPECT_EQ(t[1].addr(), 0x100u);
    EXPECT_EQ(t[2].kind(), OpKind::Write);
    EXPECT_EQ(t[3].kind(), OpKind::Barrier);
}

TEST(TraceBuilder, ZeroComputeIsElided)
{
    TraceBuilder tb;
    tb.compute(0).read(0x40);
    EXPECT_EQ(tb.size(), 1u);
}

TEST(PhaseSchedule, EmitsInTimeOrderWithGaps)
{
    PhaseSchedule sched;
    sched.at(100, TraceOp::read(0x40));
    sched.at(20, TraceOp::write(0x80));
    TraceBuilder tb;
    sched.emit(tb);
    const Trace t = tb.take();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].kind(), OpKind::Compute);
    EXPECT_EQ(t[0].cycles(), 20u);
    EXPECT_EQ(t[1].kind(), OpKind::Write);
    EXPECT_EQ(t[2].kind(), OpKind::Compute);
    EXPECT_EQ(t[2].cycles(), 80u);
    EXPECT_EQ(t[3].kind(), OpKind::Read);
}

TEST(PhaseSchedule, StableForEqualTimes)
{
    PhaseSchedule sched;
    sched.at(50, TraceOp::read(0x1 * 32));
    sched.at(50, TraceOp::read(0x2 * 32));
    sched.at(50, TraceOp::read(0x3 * 32));
    TraceBuilder tb;
    sched.emit(tb);
    const Trace t = tb.take();
    ASSERT_EQ(t.size(), 4u); // compute + three reads
    EXPECT_EQ(t[1].addr(), 0x1u * 32);
    EXPECT_EQ(t[2].addr(), 0x2u * 32);
    EXPECT_EQ(t[3].addr(), 0x3u * 32);

    // Three ties alone do not pin stability: below 16 items an
    // unstable std::sort falls back to insertion sort, which keeps
    // ties in order too. 64 ties do.
    for (unsigned i = 0; i < 64; ++i)
        sched.at(50, TraceOp::read(Addr{i} * 32));
    TraceBuilder many;
    sched.emit(many);
    const Trace m = many.take();
    ASSERT_EQ(m.size(), 65u);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(m[i + 1].addr(), Addr{i} * 32) << i;
}

TEST(PhaseSchedule, EmitResetsForReuse)
{
    PhaseSchedule sched;
    sched.at(10, TraceOp::read(0x40));
    TraceBuilder tb;
    sched.emit(tb);
    sched.at(5, TraceOp::write(0x80));
    sched.emit(tb);
    const Trace t = tb.take();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[3].kind(), OpKind::Write);
}
