/**
 * @file
 * Shared-address-space layout helpers for the workload generators.
 *
 * Home assignment is page-interleaved (ProtoConfig::homeOf), so a
 * generator that wants a region homed at a particular node allocates
 * it on pages belonging to that node. Keeping one producer's output
 * blocks on its own pages matters for the SWI heuristic: the
 * early-write-invalidate table is per home node, so consecutive
 * writes by a producer only trigger SWI when they reach the same
 * home, exactly as in a hardware implementation.
 *
 * Layout numbers the blocks as it allocates them: each block gets the
 * next ordinal in its Workload's table (Workload::blocks, ordinal ->
 * source id), and a Region hands out ordinals, so a generator names a
 * block with an add and never divides an address. TraceBuilder emits
 * the packed 4-byte CompiledOps a Workload holds, fusing and folding
 * delays as it goes, and can repeat a generated period of ops
 * (repeatSince, emitPeriodic) for iterations that are identical. A
 * PhaseSchedule holds one 8-byte key per item and is meant to be
 * reused phase after phase, so a generator's memory is its packed
 * traces.
 */

#ifndef MSPDSM_WORKLOAD_LAYOUT_HH
#define MSPDSM_WORKLOAD_LAYOUT_HH

#include <vector>

#include "base/types.hh"
#include "proto/config.hh"
#include "workload/trace.hh"

namespace mspdsm
{

/**
 * A run of allocated blocks, by ordinal: block i of the region is
 * ordinal first + i, whatever pages its source ids lie on.
 */
struct Region
{
    BlockId first = 0;   //!< ordinal of the region's first block
    unsigned blocks = 0; //!< number of blocks

    /** Ordinal of block @p i within the region. */
    BlockId block(unsigned i) const { return first + i; }
};

/**
 * Page-granular allocator over the simulated address space. Each
 * block it allocates takes the next ordinal in the Workload it was
 * given (whose blockSize it sets); a region of one home that spans
 * several pages places page k at k * numNodes pages after its first,
 * so every page has the same home, while an unhomed region's pages
 * are contiguous.
 */
class Layout
{
  public:
    Layout(const ProtoConfig &cfg, Workload &w)
        : cfg_(cfg), w_(w)
    {
        w.blockSize = cfg.blockSize;
    }

    /**
     * Allocate @p nblocks blocks starting on the next free page whose
     * home is @p home; further pages follow every numNodes pages
     * (reserved here, so no later region takes them). Pages are never
     * shared between regions.
     */
    Region allocAt(NodeId home, unsigned nblocks);

    /** Allocate contiguous pages without a home constraint (spread
     * over nodes). */
    Region alloc(unsigned nblocks);

  private:
    /** True iff page @p p belongs to an earlier multi-page region. */
    bool
    reserved(std::uint64_t p) const
    {
        return p < reserved_.size() && reserved_[p];
    }

    /** Number a region of @p nblocks blocks from page @p first, its
     * pages @p stride pages apart. */
    Region take(std::uint64_t first, unsigned nblocks,
                std::uint64_t stride);

    const ProtoConfig &cfg_;
    Workload &w_;
    std::uint64_t nextPage_ = 0;
    std::vector<bool> reserved_; //!< pages ahead of nextPage_ taken
};

/**
 * Intended-time scheduler for one processor within one phase.
 *
 * Generators that need cross-processor orderings (staggered consumer
 * ranks, migratory hand-off sequences) register accesses at intended
 * offsets from the phase start; emit() sorts them and inserts compute
 * gaps reproducing the offsets. Since memory operations themselves
 * take time, actual issue times slip late; order-critical schedules
 * must therefore space operations by more than the worst-case
 * operation latency (about 1.1k cycles for a three-hop miss under
 * contention).
 */
class PhaseSchedule
{
  public:
    /** Largest offset a phase can register: the largest gap the
     * builder can emit. */
    static constexpr Tick offsetMax = CompiledOp::payloadMax;

    /** Register a read of block ordinal @p blk at offset @p t. */
    void read(Tick t, BlockId blk) { at(t, OpKind::Read, blk); }

    /** Register a write of block ordinal @p blk at offset @p t. */
    void write(Tick t, BlockId blk) { at(t, OpKind::Write, blk); }

    /**
     * Sort by offset (stable, so equal offsets keep registration
     * order) and append to @p trace, then clear for the next phase.
     * The sort is a least-significant-digit radix sort over the
     * offset bits only, and its two buffers keep their capacity, so a
     * generator reuses one schedule per processor across all its
     * phases without allocating.
     */
    void emit(class TraceBuilder &trace);

  private:
    /** Each item is one key: its offset in the high 32 bits and its
     * access, a prefix-free CompiledOp, in the low 32. */
    void
    at(Tick t, OpKind k, BlockId blk)
    {
        panic_if(t > offsetMax, "phase offset ", t, " out of range");
        panic_if(blk > CompiledOp::blockMax, "block ordinal ", blk,
                 " overflows the packed op");
        keys_.push_back(t << 32 | CompiledOp::access(k, blk, 0).bits);
    }

    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> spare_; //!< the radix passes' other buffer
};

/**
 * Builder for one processor's packed trace. It writes the form the
 * processors execute as it goes: runs of computes fuse, zero delays
 * vanish, a fused delay of at most CompiledOp::delayMax directly
 * before an access folds into it as its prefix (any other delay stays
 * a standalone Compute), and an access carries its block ordinal.
 * CompiledWorkload only renumbers the ordinals. A delay or a fused
 * delay too large for its field panics "... overflows the packed op".
 */
class TraceBuilder
{
  public:
    TraceBuilder &
    compute(Tick c)
    {
        if (c == 0)
            return *this;
        ++sourceOps_;
        // Validate the operand before the sum: with both addends
        // capped at payloadMax (2^30-1) the sum cannot wrap, so the
        // fused check is exact.
        panic_if(c > CompiledOp::payloadMax,
                 "compute delay overflows the packed op");
        pending_ += c;
        panic_if(pending_ > CompiledOp::payloadMax,
                 "fused compute delay overflows the packed op");
        return *this;
    }

    /** Read block ordinal @p blk. */
    TraceBuilder &read(BlockId blk) { return access(OpKind::Read, blk); }

    /** Write block ordinal @p blk. */
    TraceBuilder &write(BlockId blk) { return access(OpKind::Write, blk); }

    TraceBuilder &
    barrier()
    {
        ++sourceOps_;
        flush();
        ops_.push_back(CompiledOp::make(OpKind::Barrier, 0));
        return *this;
    }

    /**
     * Append one readable op, a Read or Write as an access to block
     * ordinal @p blk (its address is not looked at; @p blk is ignored
     * for the other kinds). Each counts as one source op, a
     * zero-cycle compute included.
     */
    TraceBuilder &add(TraceOp op, BlockId blk);

    /** Where a period of ops starts: see repeatSince(). */
    struct Mark
    {
        std::size_t ops;       //!< packed ops emitted before it
        std::size_t sourceOps; //!< source ops counted before it
        Tick pending;          //!< fused delay not yet emitted
    };

    Mark mark() const { return Mark{ops_.size(), sourceOps_, pending_}; }

    /**
     * Append a copy of the packed ops emitted since @p m, counting
     * their source ops again. The copy is exactly what re-issuing the
     * same calls would emit only if the pending delay is the same at
     * both ends of the period, so anything else panics.
     */
    void repeatSince(const Mark &m);

    /**
     * Move the trace into @p w as its next processor's, adding its
     * source op count, then start over empty.
     */
    void appendTo(Workload &w);

    /** Ops emitted so far, before fusion and folding. */
    std::size_t sourceOps() const { return sourceOps_; }

  private:
    TraceBuilder &
    access(OpKind k, BlockId blk)
    {
        ++sourceOps_;
        panic_if(blk > CompiledOp::blockMax, "block ordinal ", blk,
                 " overflows the packed op");
        if (pending_ > CompiledOp::delayMax) [[unlikely]]
            flush();
        ops_.push_back(CompiledOp::access(k, blk, pending_));
        pending_ = 0;
        return *this;
    }

    /** Emit the pending delay as a standalone Compute. */
    void
    flush()
    {
        if (pending_ != 0)
            ops_.push_back(CompiledOp::make(OpKind::Compute, pending_));
        pending_ = 0;
    }

    PackedTrace ops_;
    Tick pending_ = 0; //!< fused delay not yet emitted
    std::size_t sourceOps_ = 0;
};

/**
 * Generate @p iters iterations of a workload whose iterations after
 * the first emit the same ops: @p iteration(it) emits iteration @p it
 * into the builders @p tb. Iterations 0 and 1 are generated; each
 * later one is a copy of the one before in every builder
 * (repeatSince), so generation costs two iterations whatever
 * @p iters is. Only for generators with no randomness and nothing
 * that depends on the iteration past `it > 0`.
 */
template <class Iteration>
void
emitPeriodic(std::vector<TraceBuilder> &tb, unsigned iters,
             Iteration &&iteration)
{
    if (iters == 0)
        return;
    iteration(0u);
    if (iters == 1)
        return;
    std::vector<TraceBuilder::Mark> marks;
    marks.reserve(tb.size());
    for (const TraceBuilder &b : tb)
        marks.push_back(b.mark());
    iteration(1u);
    // Iteration by iteration across the builders, as generating would:
    // their traces then grow, and the heap is laid out, as before.
    for (unsigned it = 2; it < iters; ++it) {
        for (std::size_t q = 0; q < tb.size(); ++q) {
            const TraceBuilder::Mark last = tb[q].mark();
            tb[q].repeatSince(marks[q]);
            marks[q] = last;
        }
    }
}

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_LAYOUT_HH
