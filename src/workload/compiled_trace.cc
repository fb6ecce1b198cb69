#include "workload/compiled_trace.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mspdsm
{

namespace
{

/**
 * Source block id -> first-touch ordinal, through a direct table over
 * the source ids. Generators allocate pages from zero, so the table
 * spans only the pages they used, and a lookup is one indexed load
 * where a hash map probe made the whole compile measurably slower.
 */
class Ordinals
{
  public:
    /** Ordinal of @p raw; sets @p fresh iff this is its first touch. */
    std::uint32_t
    get(BlockId raw, bool &fresh)
    {
        fatal_if(raw >= maxRaw, "block id ", raw,
                 " beyond the compiler's direct table");
        if (raw >= ord_.size())
            ord_.resize(std::max<std::size_t>(
                            {raw + 1, 2 * ord_.size(), minTable}),
                        none);
        std::uint32_t &o = ord_[raw];
        fresh = o == none;
        if (fresh)
            o = next_++;
        return o;
    }

  private:
    static constexpr BlockId maxRaw = BlockId{1} << 26;
    static constexpr std::size_t minTable = 4096;
    static constexpr std::uint32_t none = ~std::uint32_t{0};
    std::vector<std::uint32_t> ord_;
    std::uint32_t next_ = 0;
};

/**
 * Compile one trace, mapping each source block through
 * @p number(raw) -> compiled id.
 */
template <typename Number>
std::size_t
compileTrace(const Trace &t, const AddrMap &map,
             std::vector<CompiledOp> &out, Number &&number)
{
    const std::size_t start = out.size();
    out.reserve(start + t.size());

    for (const TraceOp &op : t) {
        switch (op.kind()) {
          case OpKind::Compute: {
            const Tick cycles = op.cycles();
            if (cycles == 0)
                break; // timing no-op; drop it
            // Validate the operand before any fusion arithmetic:
            // with both addends capped at payloadMax (2^30-1) the
            // uint64 sum below cannot wrap, so the fused check is
            // exact.
            panic_if(cycles > CompiledOp::payloadMax,
                     "compute delay overflows the packed op");
            if (out.size() > start &&
                out.back().kind() == OpKind::Compute) {
                // Fuse into the previous delay: two back-to-back
                // delays are indistinguishable from their sum to
                // every other component (nothing observes the
                // processor between them).
                const std::uint64_t fused =
                    out.back().payload() + cycles;
                panic_if(fused > CompiledOp::payloadMax,
                         "fused compute delay overflows the packed op");
                out.back() = CompiledOp::make(OpKind::Compute, fused);
                break;
            }
            out.push_back(CompiledOp::make(OpKind::Compute, cycles));
            break;
          }
          case OpKind::Read:
          case OpKind::Write: {
            const BlockId blk = number(map.blockOf(op.addr()));
            panic_if(blk > CompiledOp::payloadMax,
                     "block id overflows the packed op");
            out.push_back(CompiledOp::make(op.kind(), blk));
            break;
          }
          case OpKind::Barrier:
            out.push_back(CompiledOp::make(OpKind::Barrier, 0));
            break;
        }
    }
    return out.size() - start;
}

} // namespace

CompiledWorkload::CompiledWorkload(const Workload &w, const AddrMap &map)
    : CompiledWorkload(w.traces, map)
{
    name_ = w.name;
    netJitter_ = w.netJitter;
}

CompiledWorkload::CompiledWorkload(const std::vector<Trace> &traces,
                                   const AddrMap &map)
    : blockSize_(map.blockSizeBytes()), map_(map),
      homeStart_(map.numNodes() + 1, 0)
{
    std::size_t total = 0;
    for (const Trace &t : traces)
        total += t.size();
    sourceOps_ = total;
    arena_.reserve(total);
    spans_.reserve(traces.size());

    // Dense renumbering, in first-touch order over the traces: the
    // j-th block homed at h becomes blockAt(h, j), so its geometric
    // home is unchanged and its local index is j.
    // homeStart_[h + 1] counts home h's blocks until the prefix sum
    // below turns the counts into offsets.
    Ordinals ords;
    std::vector<BlockId> idOf, rawOfOrd; // by ordinal
    auto number = [&](BlockId raw) {
        bool fresh;
        const std::uint32_t o = ords.get(raw, fresh);
        if (fresh) {
            const NodeId h = map_.geometricHomeOf(raw);
            idOf.push_back(map_.blockAt(h, homeStart_[h + 1]++));
            rawOfOrd.push_back(raw);
        }
        return idOf[o];
    };
    for (const Trace &t : traces) {
        Span s;
        s.offset = arena_.size();
        s.count = compileTrace(t, map_, arena_, number);
        spans_.push_back(s);
    }

    for (std::size_t h = 1; h < homeStart_.size(); ++h)
        homeStart_[h] += homeStart_[h - 1];
    rawOf_.resize(rawOfOrd.size());
    for (std::size_t o = 0; o < idOf.size(); ++o) {
        const AddrMap::ShardSlot at = map_.shardSlotOf(idOf[o]);
        rawOf_[homeStart_[at.home] + at.local] = rawOfOrd[o];
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
            out.push_back(
                TraceOp::read(w.rawBlock(op.payload()) * blockSize));
            break;
          case OpKind::Write:
            out.push_back(
                TraceOp::write(w.rawBlock(op.payload()) * blockSize));
            break;
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
