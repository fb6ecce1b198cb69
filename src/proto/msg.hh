/**
 * @file
 * Coherence messages exchanged between cache controllers and
 * directories in the full-map write-invalidate protocol (paper
 * Section 2, Figure 1).
 */

#ifndef MSPDSM_PROTO_MSG_HH
#define MSPDSM_PROTO_MSG_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace mspdsm
{

/** Coherence message types. */
enum class MsgType : std::uint8_t
{
    // Requests: cache -> home directory. These are the messages the
    // Memory Sharing Predictors observe and predict.
    GetS,    //!< read: fetch a read-only copy
    GetX,    //!< write: fetch a writable copy
    Upgrade, //!< write to an already-cached read-only copy

    // Commands: home directory -> cache.
    Inval,  //!< invalidate a read-only copy
    Recall, //!< invalidate the writable copy and return the data

    // Acknowledgements: cache -> home directory. Observed by the
    // general message predictor (Cosmos) but not by MSP/VMSP.
    InvAck,    //!< response to Inval
    WriteBack, //!< data response to Recall

    // Data responses: home directory -> requesting cache.
    DataShared, //!< read-only copy
    DataExcl,   //!< writable copy
    UpgradeAck, //!< permission to write to the held copy

    // Speculation: home directory -> predicted consumer cache.
    SpecData, //!< speculatively forwarded read-only copy

    // Fault-injection layer (dsm/fault.hh). None of these exist in a
    // fault-free run, so the paper-reproduction protocol above is
    // untouched when no FaultPlan is configured.
    Nack,       //!< request bounced off a dead node; retry at sender
    RehomeSync, //!< directory-reconstruction sync, cache -> backup home
    ShardSync,  //!< batched directory-shard delta, home -> backup
};

/** @return mnemonic name of a message type. */
const char *msgTypeName(MsgType t);

/** @return true for GetS / GetX / Upgrade. */
constexpr bool
isRequest(MsgType t)
{
    return t == MsgType::GetS || t == MsgType::GetX ||
           t == MsgType::Upgrade;
}

/** @return true for messages that carry a data block (wider NI slot).
 * Evaluated once per network send, so it lives in the header. */
constexpr bool
carriesData(MsgType t)
{
    return t == MsgType::WriteBack || t == MsgType::DataShared ||
           t == MsgType::DataExcl || t == MsgType::SpecData;
}

/** Why a speculative read-only copy was pushed to a consumer. */
enum class SpecTrigger : std::uint8_t
{
    None,      //!< not speculative
    FirstRead, //!< triggered by the first read of a predicted sequence
    Swi,       //!< triggered by a successful speculative write inval
};

/**
 * @return true for the message types a node's *home directory*
 * handles (requests and acknowledgements); everything else is
 * delivered to the node's cache controller. This is the static
 * routing rule the network's delivery sink applies per message.
 */
constexpr bool
routesToDirectory(MsgType t)
{
    return t == MsgType::GetS || t == MsgType::GetX ||
           t == MsgType::Upgrade || t == MsgType::InvAck ||
           t == MsgType::WriteBack;
}

/**
 * One coherence message. Plain value type; the network delivers
 * copies, never references. Copied per hop on the hot path, so the
 * layout is kept to 16 bytes: the five boolean flags share a single
 * byte of bitfields.
 */
struct CohMsg
{
    MsgType type = MsgType::GetS;

    /** For SpecData: which mechanism triggered the push. */
    SpecTrigger trigger = SpecTrigger::None;

    NodeId src = invalidNode;
    NodeId dst = invalidNode;

    /**
     * Requester-side copy state piggy-backed on requests and InvAck,
     * used by the home for speculation verification (Section 4.2):
     * hadCopy -- the sender held a valid copy when sending;
     * copyWasSpec -- that copy had been placed speculatively;
     * copyReferenced -- the processor had referenced the copy.
     */
    std::uint8_t hadCopy : 1 = 0;
    std::uint8_t copyWasSpec : 1 = 0;
    std::uint8_t copyReferenced : 1 = 0;

    /** Recall initiated by the SWI heuristic rather than a request. */
    std::uint8_t speculative : 1 = 0;

    /**
     * On data responses: the transaction crossed node boundaries, so
     * the requester's stall counts as remote request waiting time
     * rather than computation (Figure 9 breakdown).
     */
    std::uint8_t remoteWork : 1 = 0;

    /**
     * Sender's restart epoch at send time (fault layer). A node's
     * epoch bumps when it is killed, so a message launched before the
     * crash is recognizably stale on delivery and dropped instead of
     * mutating post-recovery state. Occupies what was the struct's
     * padding byte; always 0 in fault-free runs.
     */
    std::uint8_t srcEpoch = 0;

    BlockId blk = 0;

    /** Render for diagnostics. */
    std::string toString() const;
};

static_assert(sizeof(CohMsg) == 16,
              "CohMsg is copied per network hop; keep it two words");

} // namespace mspdsm

#endif // MSPDSM_PROTO_MSG_HH
