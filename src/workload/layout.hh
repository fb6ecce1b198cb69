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
 * TraceBuilder emits the packed 4-byte CompiledOps a Workload holds,
 * fusing and folding delays as it goes; a PhaseSchedule item is an
 * offset plus one readable TraceOp (16 bytes) and is meant to be
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
 * A run of coherence blocks, page by page. A region homed at one
 * node (Layout::allocAt) that spans several pages places page k at
 * base + k * pageStride, pageStride being numNodes pages, so every
 * page has the same home; otherwise pageStride is one page and the
 * region is contiguous.
 */
struct Region
{
    Addr base = 0;              //!< byte address of the first block
    unsigned blocks = 0;        //!< number of blocks
    unsigned blockSize = 0;     //!< bytes per block
    unsigned blocksPerPage = 1; //!< blocks on one page
    Addr pageStride = 0;        //!< bytes from one page to the next

    /** Byte address of block @p i within the region. */
    Addr
    addr(unsigned i) const
    {
        return base + static_cast<Addr>(i / blocksPerPage) * pageStride +
               static_cast<Addr>(i % blocksPerPage) * blockSize;
    }
};

/**
 * Page-granular allocator over the simulated address space.
 */
class Layout
{
  public:
    explicit Layout(const ProtoConfig &cfg)
        : cfg_(cfg)
    {}

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

    /** A region of @p nblocks blocks from page @p first, its pages
     * @p stride pages apart. */
    Region take(std::uint64_t first, unsigned nblocks,
                std::uint64_t stride) const;

    const ProtoConfig &cfg_;
    std::uint64_t nextPage_ = 0;
    std::vector<bool> reserved_; //!< pages ahead of nextPage_ taken
};

/**
 * Intended-time scheduler for one processor within one phase.
 *
 * Generators that need cross-processor orderings (staggered consumer
 * ranks, migratory hand-off sequences) register operations at
 * intended offsets from the phase start; emit() sorts them and
 * inserts compute gaps reproducing the offsets. Since memory
 * operations themselves take time, actual issue times slip late;
 * order-critical schedules must therefore space operations by more
 * than the worst-case operation latency (about 1.1k cycles for a
 * three-hop miss under contention).
 */
class PhaseSchedule
{
  public:
    /** Register @p op at offset @p t from the phase start. */
    void
    at(Tick t, TraceOp op)
    {
        items_.push_back(Item{t, op});
    }

    /**
     * Sort by offset (stable, so equal offsets keep registration
     * order) and append to @p trace, then clear for the next phase.
     * The buffer keeps its capacity, so a generator reuses one
     * schedule per processor across all its phases.
     */
    void emit(class TraceBuilder &trace);

  private:
    struct Item
    {
        Tick t;
        TraceOp op;
    };

    std::vector<Item> items_;
};

/**
 * Builder for one processor's packed trace. It writes the form the
 * processors execute as it goes: runs of computes fuse, zero delays
 * vanish, a fused delay of at most CompiledOp::delayMax directly
 * before an access folds into it as its prefix (any other delay stays
 * a standalone Compute), and an access carries its source block id
 * (address / blockSize under the builder's map). CompiledWorkload only
 * renumbers the ids. A delay, a fused delay or a block id too large
 * for its field panics "... overflows the packed op".
 */
class TraceBuilder
{
  public:
    /** @param map the generator's block geometry */
    explicit TraceBuilder(const AddrMap &map)
        : map_(map)
    {}

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

    TraceBuilder &read(Addr a) { return access(OpKind::Read, a); }

    TraceBuilder &write(Addr a) { return access(OpKind::Write, a); }

    TraceBuilder &
    barrier()
    {
        ++sourceOps_;
        flush();
        ops_.push_back(CompiledOp::make(OpKind::Barrier, 0));
        return *this;
    }

    /** Append one readable op; each counts as one source op, a
     * zero-cycle compute included. */
    TraceBuilder &add(TraceOp op);

    /**
     * Move the trace into @p w as its next processor's, adding its
     * source op count, then start over empty.
     */
    void appendTo(Workload &w);

    /** Ops emitted so far, before fusion and folding. */
    std::size_t sourceOps() const { return sourceOps_; }

  private:
    TraceBuilder &
    access(OpKind k, Addr a)
    {
        ++sourceOps_;
        const BlockId raw = map_.blockOf(a);
        panic_if(raw > CompiledOp::blockMax, "block id ", raw,
                 " overflows the packed op");
        if (pending_ > CompiledOp::delayMax) [[unlikely]]
            flush();
        ops_.push_back(CompiledOp::access(k, raw, pending_));
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

    AddrMap map_;
    PackedTrace ops_;
    Tick pending_ = 0; //!< fused delay not yet emitted
    std::size_t sourceOps_ = 0;
};

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_LAYOUT_HH
