#include "workload/compiled_trace.hh"

#include <algorithm>
#include <new>

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
 * Compile one trace to @p out, advancing it past the ops written and
 * mapping each source block through @p number(raw) -> compiled id.
 * At most t.size() ops are written. Runs of computes are fused,
 * zero-cycle computes vanish, and a fused delay of at most delayMax
 * directly before an access folds into it as its prefix; any other
 * delay is emitted as a standalone Compute.
 */
template <typename Number>
std::size_t
compileTrace(const Trace &t, const AddrMap &map,
             CompiledOp *&out, Number &&number)
{
    const CompiledOp *const start = out;
    std::uint64_t pending = 0; // fused delay not yet emitted
    for (const TraceOp &op : t) {
        switch (op.kind()) {
          case OpKind::Compute:
            // Validate the operand before any fusion arithmetic:
            // with both addends capped at payloadMax (2^30-1) the
            // uint64 sum below cannot wrap, so the fused check is
            // exact. Back-to-back delays are indistinguishable from
            // their sum to every other component (nothing observes
            // the processor between them).
            panic_if(op.cycles() > CompiledOp::payloadMax,
                     "compute delay overflows the packed op");
            pending += op.cycles();
            panic_if(pending > CompiledOp::payloadMax,
                     "fused compute delay overflows the packed op");
            break;
          case OpKind::Read:
          case OpKind::Write: {
            if (pending > CompiledOp::delayMax) [[unlikely]] {
                *out++ = CompiledOp::make(OpKind::Compute, pending);
                pending = 0;
            }
            const BlockId blk = number(map.blockOf(op.addr()));
            panic_if(blk > CompiledOp::blockMax, "block id ", blk,
                     " overflows the packed op");
            *out++ = CompiledOp::access(op.kind(), blk, pending);
            pending = 0;
            break;
          }
          case OpKind::Barrier:
            if (pending != 0)
                *out++ = CompiledOp::make(OpKind::Compute, pending);
            pending = 0;
            *out++ = CompiledOp::make(OpKind::Barrier, 0);
            break;
        }
    }
    if (pending != 0)
        *out++ = CompiledOp::make(OpKind::Compute, pending);
    return static_cast<std::size_t>(out - start);
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
    for (const Trace &t : traces)
        sourceOps_ += t.size();
    // Fusion and folding only ever shrink a trace, so the source op
    // count bounds the arena: compile into one allocation of that
    // bound, then trim it to the exact size in place below.
    arena_.reset(static_cast<CompiledOp *>(std::malloc(
        std::max<std::size_t>(sourceOps_, 1) * sizeof(CompiledOp))));
    if (!arena_)
        throw std::bad_alloc();
    CompiledOp *out = arena_.get();
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
        s.offset = static_cast<std::uint64_t>(out - arena_.get());
        s.count = compileTrace(t, map_, out, number);
        spans_.push_back(s);
    }

    // Trim the arena to its exact size. Shrinking with realloc copies
    // nothing (glibc splits the chunk or remaps it), where a counting
    // pass to size the arena up front or a std::vector's
    // shrink_to_fit copy each cost measurable set-up time. On failure
    // the untrimmed arena stays valid.
    totalOps_ = static_cast<std::size_t>(out - arena_.get());
    if (auto *trimmed = static_cast<CompiledOp *>(std::realloc(
            arena_.get(),
            std::max<std::size_t>(totalOps_, 1) * sizeof(CompiledOp)))) {
        arena_.release();
        arena_.reset(trimmed);
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
