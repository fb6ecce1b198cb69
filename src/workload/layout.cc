#include "workload/layout.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "base/logging.hh"

namespace mspdsm
{

Region
Layout::take(std::uint64_t first, unsigned nblocks, std::uint64_t stride)
{
    const Region r{w_.blocks.size(), nblocks};
    const unsigned bpp = cfg_.blocksPerPage();
    unsigned left = nblocks;
    for (std::uint64_t page = first; left > 0; page += stride) {
        const unsigned on = std::min(left, bpp);
        for (unsigned k = 0; k < on; ++k)
            w_.addBlock(page * bpp + k);
        left -= on;
    }
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
    // Stable LSD radix sort, a byte of the offset per pass, only as
    // many passes as the largest offset has bytes. Keys start in
    // registration order, so equal offsets keep it.
    std::uint64_t any = 0;
    for (const std::uint64_t k : keys_)
        any |= k;
    const unsigned top = 32 + std::bit_width(any >> 32);
    spare_.resize(keys_.size());
    for (unsigned shift = 32; shift < top; shift += 8) {
        std::array<std::uint32_t, 256> at{};
        for (const std::uint64_t k : keys_)
            ++at[k >> shift & 0xff];
        std::uint32_t sum = 0;
        for (std::uint32_t &c : at)
            sum += std::exchange(c, sum);
        for (const std::uint64_t k : keys_)
            spare_[at[k >> shift & 0xff]++] = k;
        keys_.swap(spare_);
    }

    Tick now = 0;
    for (const std::uint64_t k : keys_) {
        const Tick t = k >> 32;
        if (t > now) {
            trace.compute(t - now);
            now = t;
        }
        const CompiledOp op{static_cast<std::uint32_t>(k)};
        if (op.kind() == OpKind::Read)
            trace.read(op.block());
        else
            trace.write(op.block());
    }
    keys_.clear();
}

TraceBuilder &
TraceBuilder::add(TraceOp op, BlockId blk)
{
    switch (op.kind()) {
      case OpKind::Compute:
        if (op.cycles() == 0)
            ++sourceOps_;
        return compute(op.cycles());
      case OpKind::Read:
        return read(blk);
      case OpKind::Write:
        return write(blk);
      case OpKind::Barrier:
        return barrier();
    }
    return *this;
}

void
TraceBuilder::repeatSince(const Mark &m)
{
    panic_if(pending_ != m.pending, "repeated period starts with ",
             m.pending, " pending cycles but ends with ", pending_);
    const std::size_t at = ops_.size(), len = at - m.ops;
    // Grow by doubling, as appending the ops one by one would: the
    // peak RSS of a whole run depends on the malloc heap's layout,
    // and reserving each trace's final size at once raised
    // mesh-faults' by 4%.
    if (at + len > ops_.capacity())
        ops_.reserve(std::max(2 * ops_.capacity(), at + len));
    ops_.resize(at + len);
    std::copy_n(ops_.data() + m.ops, len, ops_.data() + at);
    sourceOps_ += sourceOps_ - m.sourceOps;
}

void
TraceBuilder::appendTo(Workload &w)
{
    flush();
    w.ops.push_back(std::move(ops_));
    w.sourceOps += sourceOps_;
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
