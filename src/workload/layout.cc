#include "workload/layout.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mspdsm
{

Region
Layout::take(std::uint64_t first, unsigned nblocks,
             std::uint64_t stride) const
{
    Region r;
    r.base = first * static_cast<Addr>(cfg_.pageSize);
    r.blocks = nblocks;
    r.blockSize = cfg_.blockSize;
    r.blocksPerPage = cfg_.blocksPerPage();
    r.pageStride = stride * static_cast<Addr>(cfg_.pageSize);
    return r;
}

Region
Layout::allocAt(NodeId home, unsigned nblocks)
{
    fatal_if(home >= cfg_.numNodes, "allocAt: bad home ", home);
    fatal_if(nblocks == 0, "allocAt: empty region");
    while (nextPage_ % cfg_.numNodes != home || reserved(nextPage_))
        ++nextPage_;

    // Page interleaving gives consecutive pages consecutive homes, so
    // page k of the region sits k * numNodes pages on: same home.
    const unsigned bpp = cfg_.blocksPerPage();
    const std::uint64_t pages = (nblocks + bpp - 1) / bpp;
    for (std::uint64_t k = 1; k < pages; ++k) {
        const std::uint64_t p = nextPage_ + k * cfg_.numNodes;
        if (p >= reserved_.size())
            reserved_.resize(p + 1);
        reserved_[p] = true;
    }
    return take(nextPage_++, nblocks, cfg_.numNodes);
}

void
PhaseSchedule::emit(TraceBuilder &trace)
{
    std::stable_sort(items_.begin(), items_.end(),
                     [](const Item &a, const Item &b) {
                         return a.t < b.t;
                     });
    Tick now = 0;
    for (const Item &it : items_) {
        if (it.t > now) {
            trace.compute(it.t - now);
            now = it.t;
        }
        switch (it.op.kind()) {
          case OpKind::Compute:
            trace.compute(it.op.cycles());
            now += it.op.cycles();
            break;
          case OpKind::Read:
            trace.read(it.op.addr());
            break;
          case OpKind::Write:
            trace.write(it.op.addr());
            break;
          case OpKind::Barrier:
            trace.barrier();
            break;
        }
    }
    items_.clear();
}

TraceBuilder &
TraceBuilder::add(TraceOp op)
{
    switch (op.kind()) {
      case OpKind::Compute:
        if (op.cycles() == 0)
            ++sourceOps_;
        return compute(op.cycles());
      case OpKind::Read:
        return read(op.addr());
      case OpKind::Write:
        return write(op.addr());
      case OpKind::Barrier:
        return barrier();
    }
    return *this;
}

void
TraceBuilder::appendTo(Workload &w)
{
    flush();
    w.ops.push_back(std::move(ops_));
    w.sourceOps += sourceOps_;
    w.blockSize = map_.blockSizeBytes();
    ops_.clear();
    sourceOps_ = 0;
}

Region
Layout::alloc(unsigned nblocks)
{
    fatal_if(nblocks == 0, "alloc: empty region");
    const unsigned bpp = cfg_.blocksPerPage();
    const std::uint64_t pages = (nblocks + bpp - 1) / bpp;
    // Skip past any page a homed multi-page region reserved.
    for (std::uint64_t k = 0; k < pages;) {
        if (reserved(nextPage_ + k)) {
            nextPage_ += k + 1;
            k = 0;
        } else {
            ++k;
        }
    }
    const Region r = take(nextPage_, nblocks, 1);
    nextPage_ += pages;
    return r;
}

} // namespace mspdsm
