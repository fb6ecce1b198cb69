/**
 * @file
 * Trace compilation: the workload front end the processors execute.
 *
 * Generators emit 8-byte TraceOps (a byte address or a cycle count in
 * each), but the simulator never executes them directly. Before a
 * run, each Trace is *compiled* into a flat arena of packed 4-byte
 * ops:
 *
 *  - the BlockId is precomputed from the run's AddrMap, so the
 *    per-access address-to-block mapping disappears from the hot
 *    loop (a memory op carries its block);
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
 * A workload compile also *renumbers* the blocks densely per home:
 * the j-th distinct block homed at h (in first-touch order over the
 * traces) gets the id ((j / bpp) * N + h) * bpp + j mod bpp, for N
 * nodes and bpp blocks per page. The geometric home of every block is
 * unchanged (so are all routes and re-homes), and the local index
 * AddrMap::shardSlotOf() gives a renumbered block is exactly j, so
 * every per-block table on the message path is an array per home
 * (proto/shard_table.hh). The workload keeps the dense -> raw table
 * for decoding, traces and diagnostics.
 *
 * A round-trip decoder reconstructs the TraceOp stream for tests:
 * decode(compile(t)) == canonicalTrace(t), where the canonical form
 * differs from the original only by compute fusion and block
 * alignment of addresses, both timing-invariant (every generator
 * emits block-aligned addresses already). Folding is not visible in
 * the canonical form: the decoder expands each prefix back into its
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
 * One packed trace operation: 2 bits of kind and 30 bits of payload.
 * A Compute's payload is its fused cycle count and a Barrier's is 0;
 * a Read/Write splits it into a 22-bit dense BlockId (low bits) and
 * an 8-bit compute prefix (high bits), the delay the processor waits
 * out before it issues the access. The processors stream billions of
 * these and every cached workload holds its whole arena, so the
 * layout is a single 32-bit word: one load, a mask, and a shift per
 * decoded field. The largest dense block the suite produces (62,367
 * at 61 nodes and scale 8) is 67x below blockMax, and barnes'
 * 200,000-cycle force phase far below payloadMax; the compiler panics
 * on anything above either.
 */
struct CompiledOp
{
    std::uint32_t bits = 0;

    static constexpr unsigned kindBits = 2;
    static constexpr unsigned payloadShift = kindBits;
    static constexpr std::uint32_t kindMask = (1u << kindBits) - 1;
    static constexpr std::uint32_t payloadMax =
        ~std::uint32_t{0} >> payloadShift;

    static constexpr unsigned blockBits = 22;
    static constexpr unsigned delayShift = payloadShift + blockBits;
    static constexpr std::uint32_t blockMax = (1u << blockBits) - 1;
    static constexpr std::uint32_t delayMax =
        ~std::uint32_t{0} >> delayShift;

    /**
     * A Compute or Barrier op; @p payload must be <= payloadMax (the
     * compiler checks).
     */
    static CompiledOp
    make(OpKind k, std::uint64_t payload)
    {
        CompiledOp op;
        op.bits = static_cast<std::uint32_t>(
            static_cast<std::uint32_t>(k) | payload << payloadShift);
        return op;
    }

    /**
     * A Read/Write of @p blk after a compute prefix of @p delay
     * cycles; @p blk <= blockMax and @p delay <= delayMax (the
     * compiler checks).
     */
    static CompiledOp
    access(OpKind k, BlockId blk, Tick delay)
    {
        CompiledOp op;
        op.bits = static_cast<std::uint32_t>(
            static_cast<std::uint32_t>(k) | blk << payloadShift |
            delay << delayShift);
        return op;
    }

    OpKind kind() const { return static_cast<OpKind>(bits & kindMask); }

    /** Fused delay in cycles (Compute); 0 (Barrier). */
    std::uint32_t payload() const { return bits >> payloadShift; }

    /** BlockId of a Read/Write. */
    BlockId block() const { return bits >> payloadShift & blockMax; }

    /** Compute prefix of a Read/Write, in cycles (0: none). */
    Tick delay() const { return bits >> delayShift; }

    bool operator==(const CompiledOp &) const = default;
};

static_assert(sizeof(CompiledOp) == 4,
              "packed compiled op is streamed once per executed trace "
              "operation and held by every cached workload; keep it "
              "one 32-bit word");

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
    /** Compile @p w with the run's address mapping. */
    CompiledWorkload(const Workload &w, const AddrMap &map);

    /** Compile bare traces (no name/jitter; tests and direct runs). */
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

    /** TraceOps in the source workload (compile ratio diagnostics). */
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

    /** Releases the arena, which is malloc'd so it can be trimmed. */
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
