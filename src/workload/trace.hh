/**
 * @file
 * Per-processor memory operation traces.
 *
 * The simulator's processors are trace-driven, blocking and in-order:
 * each executes a sequence of compute delays, shared-memory reads and
 * writes, and global barriers. This is the standard methodology for
 * coherence studies (the paper's own WWT2 runs real binaries, but the
 * predictors only ever see the per-block coherence request stream that
 * such traces induce).
 *
 * Generators emit TraceOps (one packed word each); before a run the
 * harness compiles them into the smaller CompiledOp stream the
 * processors execute (workload/compiled_trace.hh).
 */

#ifndef MSPDSM_WORKLOAD_TRACE_HH
#define MSPDSM_WORKLOAD_TRACE_HH

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
 * One trace operation, packed into one word: 2 bits of kind, then a
 * 62-bit payload -- the byte address for Read/Write, the cycle count
 * for Compute, 0 for Barrier. The generators build millions of these
 * before a workload is compiled, so the transient trace set costs 8
 * bytes an op. A factory given a payload above payloadMax panics:
 * nothing is silently truncated.
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

static_assert(sizeof(TraceOp) == 8,
              "a trace op is one word; whole traces are built in "
              "memory before they are compiled");

/** A full per-processor trace. */
using Trace = std::vector<TraceOp>;

/**
 * A complete workload: one trace per processor plus identification
 * used by the harness and reports.
 */
struct Workload
{
    std::string name;          //!< e.g. "em3d"
    std::vector<Trace> traces; //!< one per processor
    Tick netJitter = 8;        //!< per-app queueing/contention level
};

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_TRACE_HH
