#include "workload/compiled_trace.hh"

#include <algorithm>
#include <new>
#include <unordered_map>

#include "base/logging.hh"
#include "workload/layout.hh"

namespace mspdsm
{

namespace
{

/**
 * Feed each op of @p traces through a TraceBuilder, each block taking
 * the next ordinal the first time it is seen.
 */
Workload
build(const std::vector<Trace> &traces, const AddrMap &map)
{
    Workload w;
    w.netJitter = 0;
    w.blockSize = map.blockSizeBytes();
    std::unordered_map<BlockId, BlockId> ordinal; // source id -> ordinal
    TraceBuilder tb;
    for (const Trace &t : traces) {
        for (const TraceOp &op : t) {
            BlockId blk = 0;
            if (op.kind() == OpKind::Read || op.kind() == OpKind::Write) {
                const BlockId raw = map.blockOf(op.addr());
                const auto [at, fresh] =
                    ordinal.try_emplace(raw, w.blocks.size());
                if (fresh)
                    w.addBlock(raw);
                blk = at->second;
            }
            tb.add(op, blk);
        }
        tb.appendTo(w);
    }
    return w;
}

} // namespace

CompiledWorkload::CompiledWorkload(const std::vector<Trace> &traces,
                                   const AddrMap &map)
    : CompiledWorkload(build(traces, map), map)
{}

CompiledWorkload::CompiledWorkload(const Workload &w, const AddrMap &map)
    : name_(w.name), netJitter_(w.netJitter),
      blockSize_(map.blockSizeBytes()), map_(map),
      homeStart_(map.numNodes() + 1, 0), sourceOps_(w.sourceOps)
{
    fatal_if(w.blockSize != blockSize_, "workload generated for ",
             w.blockSize, "-byte blocks, compiled for ", blockSize_);
    for (const PackedTrace &t : w.ops)
        totalOps_ += t.size();
    arena_.reset(static_cast<CompiledOp *>(std::malloc(
        std::max<std::size_t>(totalOps_, 1) * sizeof(CompiledOp))));
    if (!arena_)
        throw std::bad_alloc();
    spans_.reserve(w.ops.size());

    // Dense renumbering, in first-touch order over the traces: the
    // j-th block homed at h becomes blockAt(h, j), so its geometric
    // home is unchanged and its local index is j. The table from
    // ordinal to dense id has one entry per allocated block, so the
    // renumbering is one indexed load per access, and the home and
    // the field check are paid once per block. homeStart_[h + 1]
    // counts home h's blocks until the prefix sum below turns the
    // counts into offsets.
    constexpr std::uint32_t none = ~std::uint32_t{0};
    std::vector<std::uint32_t> dense(w.blocks.size(), none);
    std::vector<std::uint32_t> firstTouch; // ordinals, first touch first
    CompiledOp *out = arena_.get();
    for (const PackedTrace &t : w.ops) {
        spans_.push_back(
            Span{static_cast<std::uint64_t>(out - arena_.get()), t.size()});
        for (CompiledOp op : t) {
            if (op.isAccess()) {
                const BlockId ord = op.block();
                panic_if(ord >= dense.size(), "block ordinal ", ord,
                         " was never allocated");
                std::uint32_t &id = dense[ord];
                if (id == none) {
                    const NodeId h = map_.geometricHomeOf(w.blocks[ord]);
                    const BlockId blk = map_.blockAt(h, homeStart_[h + 1]++);
                    panic_if(blk > CompiledOp::blockMax, "dense block id ",
                             blk, " overflows the packed op");
                    id = static_cast<std::uint32_t>(blk);
                    firstTouch.push_back(static_cast<std::uint32_t>(ord));
                }
                op = CompiledOp::access(op.kind(), id, op.delay());
            }
            *out++ = op;
        }
    }

    for (std::size_t h = 1; h < homeStart_.size(); ++h)
        homeStart_[h] += homeStart_[h - 1];
    rawOf_.resize(firstTouch.size());
    for (const std::uint32_t ord : firstTouch) {
        const AddrMap::ShardSlot at = map_.shardSlotOf(dense[ord]);
        rawOf_[homeStart_[at.home] + at.local] = w.blocks[ord];
    }
}

BlockId
CompiledWorkload::blockOf(Addr a) const
{
    const BlockId raw = map_.blockOf(a);
    const NodeId h = map_.geometricHomeOf(raw);
    for (std::size_t j = 0; j < blocksAt(h); ++j)
        if (rawOf_[homeStart_[h] + j] == raw)
            return map_.blockAt(h, j);
    return invalidBlock;
}

Trace
decodeTrace(const CompiledWorkload &w, std::size_t i)
{
    const CompiledTrace t = w.trace(i);
    const Addr blockSize = w.blockSize();
    Trace out;
    out.reserve(t.size());
    for (const CompiledOp &op : t) {
        switch (op.kind()) {
          case OpKind::Compute:
            out.push_back(TraceOp::compute(op.payload()));
            break;
          case OpKind::Read:
          case OpKind::Write: {
            if (op.delay() != 0)
                out.push_back(TraceOp::compute(op.delay()));
            const Addr a = w.rawBlock(op.block()) * blockSize;
            out.push_back(op.kind() == OpKind::Read ? TraceOp::read(a)
                                                    : TraceOp::write(a));
            break;
          }
          case OpKind::Barrier:
            out.push_back(TraceOp::barrier());
            break;
        }
    }
    return out;
}

Trace
canonicalTrace(const Trace &t, const AddrMap &map)
{
    Trace out;
    out.reserve(t.size());
    const Addr blockSize = map.blockSizeBytes();
    for (const TraceOp &op : t) {
        switch (op.kind()) {
          case OpKind::Compute:
            if (op.cycles() == 0)
                break;
            if (!out.empty() && out.back().kind() == OpKind::Compute) {
                out.back() = TraceOp::compute(out.back().cycles() +
                                              op.cycles());
                break;
            }
            out.push_back(op);
            break;
          case OpKind::Read:
          case OpKind::Write: {
            const Addr aligned = map.blockOf(op.addr()) * blockSize;
            out.push_back(op.kind() == OpKind::Read
                              ? TraceOp::read(aligned)
                              : TraceOp::write(aligned));
            break;
          }
          case OpKind::Barrier:
            out.push_back(op);
            break;
        }
    }
    return out;
}

} // namespace mspdsm
