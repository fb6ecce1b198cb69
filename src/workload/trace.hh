/**
 * @file
 * The two trace formats: per-processor memory operation traces.
 *
 * The simulator's processors are trace-driven, blocking and in-order:
 * each executes a sequence of compute delays, shared-memory reads and
 * writes, and global barriers. This is the standard methodology for
 * coherence studies (the paper's own WWT2 runs real binaries, but the
 * predictors only ever see the per-block coherence request stream that
 * such traces induce).
 *
 * A CompiledOp is the packed 4-byte op the processors execute, and
 * the form a Workload holds: generators emit straight into it through
 * TraceBuilder (workload/layout.hh), which fuses compute runs and
 * folds short delays into the next access as it goes. An access names
 * its block by *ordinal*, the block's index in the order the
 * generator's Layout allocated it; Workload::blocks maps ordinals
 * back to source block ids (address / blockSize). A TraceOp is the
 * readable 8-byte form (a byte address or a cycle count) used for
 * hand-written traces and decodeTrace()'s output
 * (workload/compiled_trace.hh); a list of them is fed through the
 * same builder before it runs, each block taking the next ordinal the
 * first time it is seen.
 */

#ifndef MSPDSM_WORKLOAD_TRACE_HH
#define MSPDSM_WORKLOAD_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace mspdsm
{

/** Kinds of trace operations. */
enum class OpKind : std::uint8_t
{
    Compute, //!< spin for `cycles` processor cycles
    Read,    //!< shared-memory read of `addr`
    Write,   //!< shared-memory write of `addr`
    Barrier, //!< global barrier across all processors
};

/**
 * One readable trace operation, packed into one word: 2 bits of kind,
 * then a 62-bit payload -- the byte address for Read/Write, the cycle
 * count for Compute, 0 for Barrier. A factory given a payload above
 * payloadMax panics: nothing is silently truncated.
 */
class TraceOp
{
    static constexpr unsigned kindBits = 2;
    static constexpr std::uint64_t kindMask = (1u << kindBits) - 1;

  public:
    static constexpr std::uint64_t payloadMax =
        ~std::uint64_t{0} >> kindBits;

    /** A zero-cycle compute. */
    TraceOp() = default;

    OpKind kind() const { return static_cast<OpKind>(bits_ & kindMask); }

    /** Byte address of a Read/Write; 0 for any other kind. */
    Addr
    addr() const
    {
        return kind() == OpKind::Read || kind() == OpKind::Write
                   ? payload()
                   : 0;
    }

    /** Delay of a Compute; 0 for any other kind. */
    Tick cycles() const { return kind() == OpKind::Compute ? payload() : 0; }

    bool operator==(const TraceOp &) const = default;

    static TraceOp compute(Tick c) { return TraceOp(OpKind::Compute, c); }
    static TraceOp read(Addr a) { return TraceOp(OpKind::Read, a); }
    static TraceOp write(Addr a) { return TraceOp(OpKind::Write, a); }
    static TraceOp barrier() { return TraceOp(OpKind::Barrier, 0); }

  private:
    TraceOp(OpKind k, std::uint64_t payload)
        : bits_(static_cast<std::uint64_t>(k) | payload << kindBits)
    {
        panic_if(payload > payloadMax, "trace op payload ", payload,
                 " overflows the packed op");
    }

    std::uint64_t payload() const { return bits_ >> kindBits; }

    std::uint64_t bits_ = 0;
};

static_assert(sizeof(TraceOp) == 8, "a trace op is one word");

/** A full per-processor trace in readable form. */
using Trace = std::vector<TraceOp>;

/**
 * One packed trace operation: 2 bits of kind and 30 bits of payload.
 * A Compute's payload is its fused cycle count and a Barrier's is 0;
 * a Read/Write splits it into a 22-bit block number (low bits) and an
 * 8-bit compute prefix (high bits), the delay the processor waits
 * out before it issues the access. The processors stream billions of
 * these and every cached workload holds its whole arena, so the
 * layout is a single 32-bit word: one load, a mask, and a shift per
 * decoded field. A generated workload's accesses carry block
 * ordinals, so the field bounds the distinct blocks a workload
 * allocates (Workload::addBlock checks), not how far apart they lie;
 * a compiled one's carry dense ids, checked again as they are
 * assigned. barnes' 200,000-cycle force phase is far below
 * payloadMax; TraceBuilder panics on any delay above it.
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
     * builder checks).
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
     * builder checks).
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

    /** True for a Read or a Write. */
    bool
    isAccess() const
    {
        return kind() == OpKind::Read || kind() == OpKind::Write;
    }

    /** Fused delay in cycles (Compute); 0 (Barrier). */
    std::uint32_t payload() const { return bits >> payloadShift; }

    /** BlockId of a Read/Write. */
    BlockId block() const { return bits >> payloadShift & blockMax; }

    /** Compute prefix of a Read/Write, in cycles (0: none). */
    Tick delay() const { return bits >> delayShift; }

    bool operator==(const CompiledOp &) const = default;
};

static_assert(sizeof(CompiledOp) == 4,
              "packed op is streamed once per executed trace "
              "operation and held by every workload; keep it one "
              "32-bit word");

/** A full per-processor trace in packed form. */
using PackedTrace = std::vector<CompiledOp>;

/**
 * A complete generated workload: one packed trace per processor over
 * block ordinals, the ordinal -> source id table, plus identification
 * used by the harness and reports. CompiledWorkload renumbers it for
 * a run.
 */
struct Workload
{
    std::string name;             //!< e.g. "em3d"
    std::vector<PackedTrace> ops; //!< one per processor
    std::vector<BlockId> blocks;  //!< source id of each block ordinal
    std::size_t sourceOps = 0;    //!< ops emitted before fusion/folding
    unsigned blockSize = 0;       //!< bytes per block of the source ids
    Tick netJitter = 8;           //!< per-app queueing/contention level

    /**
     * Give source block @p raw the next ordinal and return it. Panics
     * once the ordinals outgrow the packed op's block field: the one
     * check on the number of distinct blocks, made per block as it is
     * allocated.
     */
    BlockId
    addBlock(BlockId raw)
    {
        panic_if(blocks.size() > CompiledOp::blockMax, "block ordinal ",
                 blocks.size(), " overflows the packed op");
        blocks.push_back(raw);
        return blocks.size() - 1;
    }
};

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_TRACE_HH
