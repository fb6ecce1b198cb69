/**
 * @file
 * Predictor symbols: the alphabet of the two-level pattern predictors.
 *
 * Cosmos predicts over all incoming directory messages (requests and
 * acknowledgements); MSP restricts the alphabet to request messages;
 * VMSP folds consecutive read requests into a single reader-vector
 * symbol. All three share this Symbol representation.
 */

#ifndef MSPDSM_PRED_SYMBOL_HH
#define MSPDSM_PRED_SYMBOL_HH

#include <cstdint>
#include <string>

#include "base/bitvector.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace mspdsm
{

/** Kinds of predictor symbols. */
enum class SymKind : std::uint8_t
{
    Read,      //!< read request (GetS) by one processor
    Write,     //!< write request (GetX) by one processor
    Upgrade,   //!< upgrade request by one processor
    InvAck,    //!< invalidation acknowledgement (Cosmos only)
    WriteBack, //!< writeback in response to a recall (Cosmos only)
    ReadVec,   //!< folded vector of readers (VMSP only)
};

/** @return short mnemonic for a symbol kind. */
const char *symKindName(SymKind k);

/**
 * One element of a message-history or pattern-table sequence.
 *
 * For ReadVec symbols the payload is a reader NodeSet; for all other
 * kinds it is the source processor id.
 */
struct Symbol
{
    SymKind kind = SymKind::Read;
    NodeId pid = invalidNode; //!< source processor (non-vector kinds)
    NodeSet vec;              //!< reader vector (ReadVec only)

    /** Build a single-source symbol. */
    static Symbol
    of(SymKind k, NodeId p)
    {
        panic_if(k == SymKind::ReadVec,
                 "ReadVec symbols carry a vector, not a pid");
        Symbol s;
        s.kind = k;
        s.pid = p;
        return s;
    }

    /** Build a reader-vector symbol. */
    static Symbol
    readVec(NodeSet v)
    {
        Symbol s;
        s.kind = SymKind::ReadVec;
        s.vec = v;
        return s;
    }

    bool
    operator==(const Symbol &o) const
    {
        if (kind != o.kind)
            return false;
        if (kind == SymKind::ReadVec)
            return vec == o.vec;
        return pid == o.pid;
    }

    /** Render for diagnostics, e.g. "<Read,P3>" or "<ReadVec,{1,2}>". */
    std::string toString() const;
};

} // namespace mspdsm

#endif // MSPDSM_PRED_SYMBOL_HH
