/**
 * @file
 * Per-node home directory: full-map write-invalidate protocol FSM
 * (paper Section 2 / Figure 1) with the predictor observation hooks
 * and the speculation engine (Section 4) layered on top.
 *
 * Design rules carried over from the paper:
 *  - the predictor only *observes* incoming messages and *advises*
 *    the directory to perform existing operations early; no protocol
 *    transition is added for speculation;
 *  - speculatively pushed read-only copies are tracked as ordinary
 *    sharers, so a later write invalidates them through the normal
 *    path, and the invalidation acknowledgement piggy-backs the
 *    reference bit used for verification;
 *  - a misspeculated (unreferenced) push removes the offending
 *    pattern-table entry; a premature SWI sets the per-entry
 *    premature bit that suppresses future early invalidations for
 *    that write.
 *
 * Each block has one full-map entry (Entry), held inline in a
 * per-home ShardTable. The directory serializes transactions per
 * block: requests arriving while a transaction is in flight are
 * deferred in arrival order.
 * Predictors still observe messages at *arrival*, which is the stream
 * the paper's predictors see.
 */

#ifndef MSPDSM_DSM_DIRECTORY_HH
#define MSPDSM_DSM_DIRECTORY_HH

#include <vector>

#include "base/bitvector.hh"
#include "base/types.hh"
#include "net/network.hh"
#include "pred/predictor.hh"
#include "pred/vmsp.hh"
#include "proto/config.hh"
#include "proto/msg.hh"
#include "proto/shard_table.hh"
#include "sim/eventq.hh"
#include "sim/tick_queue.hh"
#include "spec/spec.hh"

namespace mspdsm
{

class ObsManager;

/** Directory states; Busy* are the transient transaction states. */
enum class DirState : std::uint8_t
{
    Idle,
    Shared,
    Excl,
    BusyService, //!< lookup/memory latency before a reply
    BusyInval,   //!< collecting invalidation acks for a write grant
    BusyRecall,  //!< awaiting a writeback (demand or SWI recall)
};

/** Directory-side statistics. */
struct DirStats
{
    Counter reqGetS;    //!< read requests received
    Counter reqGetX;    //!< write requests received
    Counter reqUpgrade; //!< upgrade requests received
    Counter recalls;    //!< demand recalls issued
    Counter invals;     //!< invalidations issued

    // Fault layer; zero in fault-free runs.
    Counter faultAborts; //!< grants abandoned: requester died mid-flight
};

/**
 * The home directory of one node.
 */
class Directory
{
  public:
    /**
     * @param id this node
     * @param eq shared event queue
     * @param net interconnect
     * @param cfg machine configuration
     * @param observers predictors observing this directory's incoming
     *        messages; several can observe one run (they are passive)
     * @param vmsp the predictor driving speculation (must also be in
     *        @p observers so its state advances), or null
     * @param mode speculation mode
     */
    Directory(NodeId id, EventQueue &eq, Network &net,
              const ProtoConfig &cfg,
              std::vector<PredictorBase *> observers, Vmsp *vmsp,
              SpecMode mode);

    /** Network-side handler for requests and acknowledgements. */
    void handle(const CohMsg &msg);

    /** Protocol statistics. */
    const DirStats &stats() const { return stats_; }

    /** Speculation statistics. */
    const SpecStats &specStats() const { return specStats_; }

    /** Directory state of a block, for tests. */
    DirState blockState(BlockId blk) const;

    /** Sharer set of a block, for tests. */
    NodeSet sharersOf(BlockId blk) const;

    /** Owner of a block (invalidNode when none), for tests. */
    NodeId ownerOf(BlockId blk) const;

    // ---- Fault layer (dsm/fault.hh). All optional: a directory with
    // ---- no fault wiring behaves exactly as before.

    /**
     * Attach the fault layer. With it attached, write transactions
     * record the requester's restart epoch so a grant whose requester
     * died (or died and restarted) mid-flight is abandoned instead of
     * wedging the block on a dead owner, and speculative pushes skip
     * dead consumers.
     */
    void setFaults(FaultManager *f) { faults_ = f; }

    /** Attach the observability layer (dsm/system.cc; may be null). */
    void setObs(ObsManager *o) { obs_ = o; }

    /** Share the fault layer's home re-mapping table. */
    void setHomeRemap(const NodeId *table) { map_.setRemap(table); }

    /** Size the entry table for @p blocks blocks homed at @p home. */
    void
    reserveShard(NodeId home, std::size_t blocks)
    {
        entries_.reserve(home, blocks);
    }

    /**
     * Fail-stop this directory: cancel every pending directory event
     * and drop all entry state. The shard is subsequently served by
     * the backup home (re-map table), reconstructed via adopt().
     */
    void failover();

    /**
     * Backup-side reconstruction: record that surviving node
     * @p holder caches @p blk (@p modified selects Excl-owner vs
     * sharer). Survivors' shards are disjoint from ours, so adopted
     * entries never collide with native ones.
     */
    void adopt(BlockId blk, NodeId holder, bool modified);

    /**
     * Surviving-directory sweep after node @p v fail-stops (now):
     * drop @p v's deferred requests, prune it from sharer
     * sets and speculation targets, release blocks it owned, absorb
     * the writeback of a recall it can no longer answer, and stop
     * waiting for its invalidation acks (completing the write
     * transaction if it was the last one).
     */
    void pruneDead(NodeId v);

    /**
     * Fail-back: drop every entry of geometric shard @p home that
     * this directory was hosting as the interim backup, cancelling
     * the shard's pending due-actions. In-flight transactions are
     * aborted (counted as faultAborts); their requesters recover
     * through the bounded-retry FSM, which re-resolves the home to
     * the restarted victim.
     */
    void releaseShard(NodeId home);

  private:
    /**
     * One block's directory entry (paper Section 2: one full-map
     * entry per block), held inline in the per-home ShardTable:
     * the coherence FSM, the deferral FIFO, and the speculation/SWI
     * bookkeeping layered on top.
     */
    struct Entry
    {
        NodeSet sharers;
        /**
         * Requests that arrived while the block was busy, in arrival
         * order (served from the front). Each node has one
         * outstanding miss, so this holds at most one request per
         * node.
         */
        std::vector<CohMsg> deferred;
        int pendingAcks = 0;
        int repliesInFlight = 0; //!< read replies being serviced
        NodeId owner = invalidNode;
        NodeId curReq = invalidNode;
        DirState state = DirState::Idle;

        // In-flight transaction.
        MsgType curType = MsgType::GetS;
        bool curUpgradeGrant = false;
        bool curIsSwi = false;
        bool curRemote = false; //!< transaction touched other nodes
        SymKind curWriteSym = SymKind::Write; //!< as the requester
                                              //!< sent it (GetX/Upg)

        // Read-phase speculation state.
        NodeSet specSent;
        Vmsp::Key specKey = 0;
        bool phaseTriggered = false;
        SpecTrigger phaseTrig = SpecTrigger::None;
        bool specKeyValid = false;
        bool misspecPenalized = false;

        // SWI premature-detection epoch.
        NodeId swiExOwner = invalidNode;
        bool swiEpoch = false;
        bool swiWriteKeyValid = false;
        bool swiVerdictPending = false; //!< ex-owner wrote again;
                                        //!< judge at grant time
        bool specAnyUsed = false; //!< any consumer progress since SWI
        Vmsp::Key swiWriteKey = 0;
        /**
         * Premature hysteresis: while learning, a block's reader
         * vector can change between premature episodes (robbed reads
         * perturb it), moving the pattern-table premature bit to a
         * different entry and letting SWI retry every round. A
         * premature verdict therefore also backs the *block* off for
         * a number of write completions; stable patterns keep their
         * entry bit and stay suppressed beyond the backoff.
         */
        unsigned swiBackoff = 0;
        unsigned swiPrematureCount = 0; //!< escalates the backoff
        Tick swiLaunch = 0; //!< trySwi tick (recall send, trace span)

        // Fault layer (only written with a FaultManager attached).
        NodeSet ackWait; //!< nodes whose InvAck is still outstanding
        std::uint8_t curReqEpoch = 0; //!< requester epoch at request
    };

    /** A deferred directory action's discriminator. */
    enum class ActKind : std::uint8_t
    {
        Send,        //!< hand msg to the network
        ReadReply,   //!< GetS service done: reply to msg.dst
        Grant,       //!< write transaction done: grant exclusive
        WbGetS,      //!< writeback absorbed for a pending GetS
        SwiComplete, //!< SWI writeback absorbed
    };

    /**
     * One deferred FSM action in this home's due-queue. The embedded
     * CohMsg carries either the full message (Send) or just the
     * block/requester fields the other kinds need. Same-tick actions
     * pop in schedule order, which is exactly the event-queue FIFO
     * the per-action pooled events gave.
     */
    struct DueAction
    {
        ActKind kind;
        CohMsg msg;
    };

    /**
     * The home's single flush event: fires at the earliest pending
     * due tick and dispatches *every* action due at that tick in one
     * dispatch -- a transaction's service completion, grant, and
     * writeback absorption that land on the same tick no longer cost
     * one event each. The ingress-drain trick, applied to the FSM.
     */
    struct FlushEvent final : public Event
    {
        explicit FlushEvent(Directory *d) : dir(d) {}

        void process() override { dir->flushFired(); }

        Directory *dir;
    };

    /** Dispatch every due action; re-arm at the next due tick. */
    void flushFired();

    /** Run one popped action with the clock at its due tick. */
    void dispatch(ActKind kind, const CohMsg &msg);

    /**
     * Shard replication hook, called whenever a transaction leaves
     * @p blk's entry in a new stable state: count the delta at the
     * fault layer, which batches it into ShardSync traffic. Free when
     * FaultPlan::replicateShards is off -- one predictable branch.
     */
    void replicate(BlockId blk);

    /** Queue a deferred action of @p kind at absolute tick @p when.
     * Mixed service latencies stray only a few ticks, so the push is
     * nearly always an append; equal dues keep schedule order. */
    void
    scheduleKind(ActKind kind, Tick when, const CohMsg &msg)
    {
        dueQ_.emplace(when, kind, msg);
        eq_.scheduleBy(when, flush_);
    }

    /** A CohMsg carrying only the block id (due-queue payloads). */
    static CohMsg
    blkMsg(BlockId blk)
    {
        CohMsg m;
        m.blk = blk;
        return m;
    }

    /** GetS service finished: send the data, trigger speculation. */
    void readReplyFired(BlockId blk, NodeId reader);

    /** Writeback for a demand GetS absorbed: share to the requester. */
    void wbGetSFired(BlockId blk);

    /** The block's entry (Idle until first used). */
    Entry &entry(BlockId blk) { return entries_[blk]; }

    static bool
    busy(const Entry &e)
    {
        return e.state == DirState::BusyService ||
               e.state == DirState::BusyInval ||
               e.state == DirState::BusyRecall;
    }

    /**
     * Reads pipeline through the directory (state is updated at
     * request processing; only the data reply is in flight), so
     * further reads may proceed while replies are pending. Writes
     * must wait for in-flight read replies: the pair-FIFO network
     * then guarantees an invalidation can never overtake the data it
     * invalidates.
     */
    static bool
    canProcess(const Entry &e, MsgType t)
    {
        if (busy(e))
            return false;
        return t == MsgType::GetS || e.repliesInFlight == 0;
    }

    /**
     * Present an incoming message to the passive observers (arrival
     * order -- the stream the paper's accuracy studies measure).
     */
    void observe(const CohMsg &msg);

    /**
     * Feed the speculation-driving VMSP. Unlike the passive
     * observers, it sees the block's *service* order, and the write
     * observation is deferred to grant time so that speculatively
     * served reads -- which never appear as request messages -- can
     * first be credited into the open reader vector from the
     * reference bits piggy-backed on this write's invalidation
     * acknowledgements (Section 4.2 verification). Without this
     * feedback, successful speculation would erase the very pattern
     * it relies on.
     */
    void specObserve(BlockId blk, SymKind kind, NodeId src);

    // The protocol handlers below act at curTick(): all their timing
    // -- service latencies, message injection -- is relative to it.
    void processRequest(Entry &e, const CohMsg &msg);
    void onGetS(Entry &e, const CohMsg &msg);
    void onWrite(Entry &e, const CohMsg &msg, bool upgrade_grant);
    void onInvAck(Entry &e, const CohMsg &msg);
    void onWriteBack(Entry &e, const CohMsg &msg);

    /**
     * The state machinery of onWriteBack, minus the arrival checks:
     * also invoked by pruneDead() to absorb, at kill time, the
     * writeback a dead owner can no longer send.
     */
    void absorbWriteBack(Entry &e, BlockId blk);

    /** Grant exclusive ownership at the end of a write transaction. */
    void grantExcl(Entry &e, BlockId blk);

    /** Process deferred requests until busy again or empty. */
    void drain(BlockId blk);

    /** Send a message from this node at tick @p when (a deferred
     * Send action in the due-queue). */
    void
    sendAt(Tick when, const CohMsg &msg)
    {
        scheduleKind(ActKind::Send, when, msg);
    }

    // --- Speculation (Section 4) -------------------------------------

    /** True iff read speculation is configured and a VMSP is attached. */
    bool specEnabled() const { return mode_ != SpecMode::None && vmsp_; }

    /** SWI bookkeeping when a write transaction completes. */
    void writeCompleted(BlockId blk, NodeId writer);

    /** Attempt a speculative write invalidation of @p blk owned by
     * @p writer (called when the writer moves on to another block). */
    void trySwi(BlockId blk, NodeId writer);

    /** SWI recall finished: push predicted readers, open the epoch. */
    void completeSwi(Entry &e, BlockId blk);

    /** First-Read trigger after serving a read for @p reader. */
    void frCheck(Entry &e, BlockId blk, NodeId reader);

    /** Push speculative copies to @p targets now. */
    void pushSpec(Entry &e, BlockId blk, NodeSet targets,
                  SpecTrigger trig, Vmsp::Key key);

    /** Premature-SWI detection at request arrival (Section 4.1). */
    void prematureCheck(const CohMsg &msg);

    /** Record a premature verdict: entry bits + block backoff. */
    void markPremature(Entry &e, BlockId blk);

    /** Verify a speculative copy from piggy-backed reference state. */
    void verifyCopy(Entry &e, BlockId blk, const CohMsg &msg);

    NodeId id_;
    EventQueue &eq_;
    Network &net_;
    const ProtoConfig &cfg_;
    AddrMap map_; //!< divide-free homeOf snapshot of cfg_
    std::vector<PredictorBase *> observers_;
    Vmsp *vmsp_;
    SpecMode mode_;
    SwiTable swiTable_;
    TickQueue<DueAction> dueQ_; //!< deferred actions by due tick
    FlushEvent flush_{this};
    ShardTable<Entry> entries_;
    FaultManager *faults_ = nullptr; //!< fault layer; null = fault-free
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    DirStats stats_;
    SpecStats specStats_;
};

} // namespace mspdsm

#endif // MSPDSM_DSM_DIRECTORY_HH
