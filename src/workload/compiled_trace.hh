/**
 * @file
 * Trace compilation: the renumbering pass between a generated
 * workload and the processors.
 *
 * Generators emit packed 4-byte ops through TraceBuilder
 * (workload/layout.hh), which already does everything an op stream
 * needs at emit time:
 *
 *  - each access carries its block *ordinal*, the index Layout gave
 *    the block when it allocated it (Workload::blocks maps it back to
 *    the source id, address / blockSize), so no address mapping
 *    reaches the hot loop;
 *  - consecutive Compute ops are fused into a single delay -- a pure
 *    timing transformation, since back-to-back delays touch no state
 *    the rest of the machine can observe between them;
 *  - a fused delay of at most CompiledOp::delayMax cycles directly
 *    before a Read/Write is folded into that access as its compute
 *    *prefix* (98% of them in the Figure 9 workloads), so the access
 *    and the delay it waits out share one word. Larger delays, and
 *    delays before a barrier or at the end of a trace, stay
 *    standalone Compute ops. The processor still runs a prefix as
 *    its own step (dsm/processor.hh), so folding changes no event.
 *
 * Compiling a Workload is then one pass that copies every op into a
 * single exact-size arena and *renumbers* the blocks densely per
 * home: the j-th distinct block homed at h (in first-touch order over
 * the processors' traces) gets the id ((j / bpp) * N + h) * bpp +
 * j mod bpp, for N nodes and bpp blocks per page. The ordinal -> dense
 * table has one entry per allocated block, so its size tracks the
 * workload, not its address range. The geometric home of every block
 * is unchanged (so are all routes and re-homes), and the local index
 * AddrMap::shardSlotOf() gives a renumbered block is exactly j, so
 * every per-block table on the message path is an array per home
 * (proto/shard_table.hh). The workload keeps the dense -> raw table
 * for decoding, traces and diagnostics.
 *
 * Hand-written TraceOp lists take the same path: each block takes the
 * next ordinal the first time it is seen (Workload::addBlock, as in
 * Layout), each op is fed through a TraceBuilder, then renumbered. A
 * round-trip decoder reconstructs the TraceOp stream:
 * decode(compile(t)) == canonicalTrace(t), where the canonical form
 * differs from the original only by compute fusion and block
 * alignment of addresses, both timing-invariant (every generator
 * emits whole blocks already). Folding is not visible in the
 * canonical form: the decoder expands each prefix back into its
 * Compute op.
 */

#ifndef MSPDSM_WORKLOAD_COMPILED_TRACE_HH
#define MSPDSM_WORKLOAD_COMPILED_TRACE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "proto/config.hh"
#include "workload/trace.hh"

namespace mspdsm
{

/**
 * A per-processor view into the compiled arena: pointer + length,
 * nothing owned. Spans stay valid for the lifetime of the
 * CompiledWorkload they came from.
 */
struct CompiledTrace
{
    const CompiledOp *ops = nullptr;
    std::size_t count = 0;

    const CompiledOp *begin() const { return ops; }
    const CompiledOp *end() const { return ops + count; }
    std::size_t size() const { return count; }
    const CompiledOp &operator[](std::size_t i) const { return ops[i]; }
};

/**
 * A fully compiled workload: one flat arena of packed ops for all
 * processors plus per-processor spans, over densely renumbered
 * blocks. Immutable after compilation, so one instance can be shared
 * by any number of concurrent runs (the harness workload cache relies
 * on this).
 */
class CompiledWorkload
{
  public:
    /**
     * Renumber @p w with the run's address mapping. Fatal if @p w was
     * generated for another block size; panics on an ordinal outside
     * its block table or a dense id too large for the block field.
     */
    CompiledWorkload(const Workload &w, const AddrMap &map);

    /**
     * Number the blocks of bare traces at first sight, build them
     * through a TraceBuilder and renumber them (no name/jitter; tests
     * and direct runs).
     */
    CompiledWorkload(const std::vector<Trace> &traces,
                     const AddrMap &map);

    /** Workload name (e.g. "em3d"). */
    const std::string &name() const { return name_; }

    /** Per-app network queueing/contention level. */
    Tick netJitter() const { return netJitter_; }

    /** Number of per-processor traces. */
    std::size_t numTraces() const { return spans_.size(); }

    /** Processor @p i's compiled op span. */
    CompiledTrace
    trace(std::size_t i) const
    {
        const Span &s = spans_[i];
        return CompiledTrace{arena_.get() + s.offset, s.count};
    }

    /** Total packed ops across all processors. */
    std::size_t totalOps() const { return totalOps_; }

    /** Ops the generator emitted, before fusion and folding (compile
     * ratio diagnostics; the numerator of perfbench's throughput). */
    std::size_t sourceOps() const { return sourceOps_; }

    /** Geometry the block ids were computed with. */
    unsigned blockSize() const { return blockSize_; }

    /** Node count the blocks were numbered for. */
    unsigned numNodes() const { return map_.numNodes(); }

    /** Blocks per page the blocks were numbered for. */
    unsigned blocksPerPage() const { return map_.blocksPerPage(); }

    /** Distinct blocks homed at @p home (its shard's size). */
    std::size_t
    blocksAt(NodeId home) const
    {
        return homeStart_[home + 1] - homeStart_[home];
    }

    /**
     * Source (address / blockSize) id of compiled block @p blk, or
     * invalidBlock if the workload has no such block.
     */
    BlockId
    rawBlock(BlockId blk) const
    {
        const AddrMap::ShardSlot at = map_.shardSlotOf(blk);
        return at.local < blocksAt(at.home)
                   ? rawOf_[homeStart_[at.home] + at.local]
                   : invalidBlock;
    }

    /**
     * Compiled id of the block holding byte address @p a, or
     * invalidBlock if no trace touches it. A linear search of one
     * home's blocks: for tests and diagnostics, not the hot path.
     */
    BlockId blockOf(Addr a) const;

  private:
    struct Span
    {
        std::uint64_t offset = 0;
        std::uint64_t count = 0;
    };

    /** Releases the arena, which is malloc'd so nothing zeroes it. */
    struct FreeArena
    {
        void operator()(CompiledOp *p) const { std::free(p); }
    };

    std::string name_;
    Tick netJitter_ = 0;
    unsigned blockSize_ = 0;
    AddrMap map_;
    //! Source id of each block, grouped by home in local-index order:
    //! home h's blocks are [homeStart_[h], homeStart_[h + 1]).
    std::vector<BlockId> rawOf_;
    std::vector<std::size_t> homeStart_;
    std::size_t sourceOps_ = 0;
    std::unique_ptr<CompiledOp[], FreeArena> arena_;
    std::size_t totalOps_ = 0;
    std::vector<Span> spans_;
};

/**
 * Decode processor @p i's compiled span back into TraceOps, through
 * the workload's dense -> raw table. Addresses come back
 * block-aligned (raw block * blockSize); fused computes stay fused,
 * and an access's compute prefix comes back as the Compute op before
 * it.
 */
Trace decodeTrace(const CompiledWorkload &w, std::size_t i);

/**
 * The canonical form of a trace: consecutive Compute ops merged,
 * zero-cycle computes dropped, and addresses aligned down to their
 * block. decode(compile(t)) == canonicalTrace(t) for every trace;
 * for the repo's generators (which emit aligned addresses and whose
 * builders already drop zero delays) the canonical form is also
 * cycle-for-cycle identical to the original.
 */
Trace canonicalTrace(const Trace &t, const AddrMap &map);

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_COMPILED_TRACE_HH
