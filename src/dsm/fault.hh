/**
 * @file
 * Deterministic fault injection and recovery (the robustness layer).
 *
 * A FaultPlan is a fixed schedule of node fail-stops, restarts, and
 * predictor-state losses, executed by the FaultManager as ordinary
 * events on the simulation's event queue -- so fault runs are exactly
 * as deterministic and repeatable as fault-free ones. The machine
 * model:
 *
 *  - A *kill* fail-stops the node: its processor halts (rewinding any
 *    op in flight), its cache loses every line, and its home
 *    directory shard re-homes to a backup node by a swap in the
 *    shared AddrMap indirection table (a table write, not a geometry
 *    rebuild). The backup installs the shard's directory state either
 *    from the surviving caches (the default survivor sweep -- the
 *    same sharing information a real recovery protocol would collect)
 *    or, with replicateShards, directly from the shard mirror the
 *    home streamed to it as batched ShardSync deltas during normal
 *    operation. Every surviving directory prunes the dead node from
 *    its own bookkeeping. All of the victim's in-flight traffic is
 *    lost: sends are stamped with the sender's restart epoch and the
 *    network drops stale-epoch messages at delivery; messages *to*
 *    the dead node are dropped, or bounced as a Nack when they are
 *    requests, feeding the cache controllers' bounded
 *    timeout-and-retry FSM.
 *  - Several nodes may be down at once, and a backup may itself be
 *    killed while hosting re-homed shards: every shard the dead
 *    backup was serving re-homes again to the next live node in a
 *    deterministic succession order (the first live node after the
 *    shard's geometric home, wrapping), and reconstruction re-runs
 *    against the new host.
 *  - A *restart* resumes the victim's processor with a cold cache
 *    (and a bumped epoch, so pre-crash stragglers stay dead) and
 *    *fails back*: the victim re-adopts its original directory shard
 *    through the same indirection table, the interim host releases
 *    the shard's entries, and in-flight messages still aimed at the
 *    interim host are screened at delivery (bounced as Nacks when
 *    they are requests), so the retry FSM re-resolves the home.
 *  - Predictor state at the victim is lost on a kill (restart is
 *    cold) unless the plan enables *warm restart*: the manager then
 *    checkpoints the victim's VMSP every ckptInterval ticks, sending
 *    the replication traffic over the real interconnect (CkptData),
 *    merges the last checkpoint into the backup's predictor at kill
 *    time, and into the victim's own predictor again at fail-back --
 *    the replication-cost axis of the fault experiments.
 *  - *Lossy links*: the plan may carry a deterministic per-link drop
 *    schedule ({tick-range, link, drop-every-Nth}). The network's
 *    transport layer (net/network.hh) recovers each dropped crossing
 *    with a timeout-and-retransmit, bounded by a retransmit budget
 *    whose exhaustion is a structured fatal.
 *
 * A machine without a FaultPlan never constructs a FaultManager and
 * runs bit-identically to the pre-fault-layer code.
 */

#ifndef MSPDSM_DSM_FAULT_HH
#define MSPDSM_DSM_FAULT_HH

#include <memory>
#include <vector>

#include "base/bitvector.hh"
#include "base/chunked_vector.hh"
#include "base/types.hh"
#include "pred/vmsp.hh"
#include "proto/config.hh"
#include "proto/shard_table.hh"
#include "sim/eventq.hh"

namespace mspdsm
{

class CacheCtrl;
class Directory;
class Network;
class ObsManager;
class Processor;

/** What happens to a node at a scheduled fault tick. */
enum class FaultKind : std::uint8_t
{
    Kill,    //!< fail-stop: processor, cache, and directory shard
    Restart, //!< resume the processor, cold cache, bumped epoch
};

/** One scheduled fault. */
struct FaultEvent
{
    Tick tick = 0;
    NodeId node = invalidNode;
    FaultKind kind = FaultKind::Kill;
};

/**
 * One deterministic link-loss rule: while curTick is in [from, to),
 * every everyNth-th message crossing directed link @p link is
 * dropped (crossings are counted per rule, in injection order, so
 * the schedule is exactly repeatable). everyNth == 1 drops every
 * crossing -- the retransmit-budget-exhaustion path.
 */
struct LinkLossRule
{
    Tick from = 0;
    Tick to = maxTick;
    std::uint32_t link = 0; //!< directed LinkId (topo/topology.hh)
    unsigned everyNth = 0;  //!< 0 disables the rule
};

/** A full fault schedule plus its recovery policy. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    /**
     * Node adopting a victim's directory shard; invalidNode selects
     * the deterministic succession order (the first live node after
     * the victim, wrapping). An explicit backup is honored verbatim
     * and is deliberately allowed to equal the victim: retries then
     * keep bouncing off the dead node until the cache controller's
     * bounded-retry FSM gives up -- the retry-exhaustion path the
     * tests exercise.
     */
    NodeId backup = invalidNode;

    /** Merge the last predictor checkpoint into the backup on kill. */
    bool warmRestart = false;

    /** Checkpoint period, ticks; 0 disables checkpointing. */
    Tick ckptInterval = 0;

    /**
     * Stream incremental directory-shard deltas (batched ShardSync
     * messages over the real interconnect) from every home to its
     * designated backup, so failover installs the replicated shard
     * mirror instead of sweeping the survivors' caches.
     */
    bool replicateShards = false;

    /** Deterministic per-link message-drop schedule. */
    std::vector<LinkLossRule> linkLoss;

    bool empty() const { return events.empty() && linkLoss.empty(); }
};

/**
 * Aggregated fault/recovery outcome of one run; all-zero (with
 * faulted == false) when no FaultPlan was configured, so the sweep
 * JSON schema stays uniform.
 */
struct FaultOutcome
{
    bool faulted = false;      //!< a FaultPlan was configured

    Tick killTick = 0;         //!< first Kill fired
    Tick restartTick = 0;      //!< last Restart fired
    Tick recoveredTick = 0;    //!< last victim's first post-restart
                               //!< step (max over restarted nodes)

    std::uint64_t opsAtKill = 0;    //!< machine-wide ops when killed
    std::uint64_t opsAtRestart = 0; //!< ... and when restarted
    std::uint64_t opsAtEnd = 0;     //!< ... and when the run drained
                                    //!< (filled by DsmSystem::run)

    std::uint64_t staleDropped = 0; //!< pre-crash messages dropped
    std::uint64_t deadDropped = 0;  //!< non-requests to a dead node
    std::uint64_t nacksSent = 0;    //!< requests bounced off the dead
    std::uint64_t rehomeSyncs = 0;  //!< reconstruction sync messages
    std::uint64_t ckptSnapshots = 0; //!< predictor checkpoints taken
    std::uint64_t ckptMessages = 0;  //!< CkptData replication messages

    // Shard replication (FaultPlan::replicateShards).
    std::uint64_t shardDeltas = 0; //!< directory deltas mirrored
    std::uint64_t shardSyncs = 0;  //!< batched ShardSync messages sent

    // Fail-back and the home screen.
    std::uint64_t failbacks = 0; //!< shards re-adopted at restart
    std::uint64_t misroutedDropped = 0; //!< non-requests screened at a
                                        //!< directory that no longer
                                        //!< hosts the block's shard

    // Transport layer under lossy links (filled from Network).
    std::uint64_t linkDrops = 0;   //!< crossings dropped by loss rules
    std::uint64_t retransmits = 0; //!< transport re-sends recovering
                                   //!< dropped crossings

    // Cache-side retry FSM, summed over nodes (system.cc fills these
    // from CacheStats at run end).
    std::uint64_t retries = 0;
    std::uint64_t nacksSeen = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t staleFills = 0;
    std::uint64_t dirAborts = 0; //!< grants abandoned at directories
};

/**
 * Executes a FaultPlan against an assembled machine. Constructed by
 * DsmSystem only when the plan is non-empty; construction wires the
 * network's epoch screen, every node's home re-map table, the cache
 * retry FSMs, and the processors' progress reporting.
 */
class FaultManager
{
  public:
    /**
     * @param eq the machine's event queue
     * @param net the interconnect (epoch stamping/screening)
     * @param cfg machine configuration (geometry)
     * @param plan the fault schedule; must be non-empty
     * @param caches,dirs,procs per-node agents, index == NodeId
     * @param vmsps per-node speculation VMSPs (entries may be null)
     * @param nodePreds all predictors resident at each node (the
     *        speculation VMSP and passive observers); reset on kill
     */
    FaultManager(EventQueue &eq, Network &net, const ProtoConfig &cfg,
                 FaultPlan plan, std::vector<CacheCtrl *> caches,
                 std::vector<Directory *> dirs,
                 std::vector<Processor *> procs,
                 std::vector<Vmsp *> vmsps,
                 std::vector<std::vector<PredictorBase *>> nodePreds);

    FaultManager(const FaultManager &) = delete;
    FaultManager &operator=(const FaultManager &) = delete;

    // ---- Hot-path queries (network delivery screen, directories).

    /** Restart epoch of node @p n (bumped once per kill). */
    std::uint8_t epoch(NodeId n) const { return epoch_[n]; }

    /** True while node @p n is fail-stopped. */
    bool dead(NodeId n) const { return deadSet_.contains(n); }

    /** The currently dead nodes (speculation target filtering). */
    NodeSet deadSet() const { return deadSet_; }

    /**
     * The node currently serving @p blk's directory shard (geometric
     * home chased through the live indirection table). The network's
     * delivery screen compares this against the destination to catch
     * messages launched before a re-home or fail-back swung the
     * table.
     */
    NodeId
    currentHome(BlockId blk) const
    {
        return remap_[map_.geometricHomeOf(blk)];
    }

    // ---- Delivery-screen accounting (network).

    void noteStaleDropped() { ++outcome_.staleDropped; }
    void noteDeadDropped() { ++outcome_.deadDropped; }
    void noteNackSent() { ++outcome_.nacksSent; }
    void noteMisrouted() { ++outcome_.misroutedDropped; }

    // ---- Shard replication (directories call in; see
    // ---- Directory::replicate).

    /** True when homes stream shard deltas to their backups. */
    bool replicating() const { return plan_.replicateShards; }

    /**
     * A directory transaction left @p blk in a new stable state:
     * mirror it, and every shardSyncBatch deltas ship one batched
     * ShardSync message from the block's acting home to its backup.
     *
     * @param excl true iff the block has an exclusive owner
     * @param owner the owner when @p excl
     * @param sharers read-only holders (speculative copies included,
     *        conservatively) when not @p excl
     */
    void noteShardDelta(BlockId blk, bool excl, NodeId owner,
                        NodeSet sharers);

    /** A restarted processor's first step() dispatch (now). */
    void noteProgress(NodeId n);

    /** Outcome so far (final after the run drains). */
    const FaultOutcome &outcome() const { return outcome_; }

    /** Attach the observability layer (dsm/system.cc; may be null). */
    void setObs(ObsManager *o) { obs_ = o; }

  private:
    /** One scheduled plan entry riding the event queue. */
    struct PlanEvent final : public Event
    {
        PlanEvent(FaultManager *m, FaultKind k, NodeId n)
            : mgr(m), kind(k), node(n)
        {}

        void process() override { mgr->planFired(*this); }

        FaultManager *mgr;
        FaultKind kind;
        NodeId node;
    };

    /** The periodic predictor-checkpoint timer. */
    struct CkptEvent final : public Event
    {
        explicit CkptEvent(FaultManager *m) : mgr(m) {}

        void process() override { mgr->checkpointFired(); }

        FaultManager *mgr;
    };

    void planFired(PlanEvent &e);
    void killNode(NodeId v);
    void restartNode(NodeId v);
    void checkpointFired();

    /** The node adopting @p v's shard under this plan. */
    NodeId backupFor(NodeId v) const;

    /**
     * Deterministic succession order: the first live node after
     * @p from, wrapping; @p from itself if every other node is dead.
     */
    NodeId successor(NodeId from) const;

    /**
     * Install geometric shard @p h's directory state at dirs_[to]
     * now: from the replicated mirror when the plan
     * replicates shards, otherwise by sweeping the surviving caches
     * (one RehomeSync message per contributing node).
     */
    void rehome(NodeId h, NodeId to);

    /** Machine-wide executed-op total (phase-throughput sampling). */
    std::uint64_t totalOps() const;

    /** True while any Kill entry is still scheduled. */
    bool killsPending() const;

    EventQueue &eq_;
    Network &net_;
    const ProtoConfig &cfg_;
    AddrMap map_; //!< geometric homes for shard reconstruction
    FaultPlan plan_;
    std::vector<CacheCtrl *> caches_;
    std::vector<Directory *> dirs_;
    std::vector<Processor *> procs_;
    std::vector<Vmsp *> vmsps_;
    std::vector<std::vector<PredictorBase *>> nodePreds_;

    std::vector<NodeId> remap_;       //!< shared per-home indirection
    std::vector<std::uint8_t> epoch_; //!< per-node restart epoch
    NodeSet deadSet_;

    ChunkedVector<PlanEvent> planEvents_; //!< stable addresses
    CkptEvent ckptEvent_{this};
    //! Latest predictor checkpoint per node (warm-restart source).
    std::vector<std::unique_ptr<Vmsp::Snapshot>> ckpts_;

    /** Deltas batched into one ShardSync message. */
    static constexpr unsigned shardSyncBatch = 8;

    /** Replicated view of one directory entry's stable state. */
    struct MirrorEntry
    {
        NodeSet sharers;
        NodeId owner = invalidNode;
        bool excl = false;
    };

    //! Per-geometric-home shard mirrors (replicateShards only).
    ShardTable<MirrorEntry> mirror_;
    //! Deltas accumulated per home since the last ShardSync flush.
    std::vector<unsigned> deltaBacklog_;

    NodeSet awaiting_; //!< restarted nodes with no step dispatch yet
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    FaultOutcome outcome_;
};

} // namespace mspdsm

#endif // MSPDSM_DSM_FAULT_HH
