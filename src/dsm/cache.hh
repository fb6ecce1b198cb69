/**
 * @file
 * Per-node cache controller.
 *
 * Models the node's processor cache plus its (infinite, per the
 * paper's Section 6 assumption) remote cache as a unified block-state
 * map. A block fetched on demand lands in the processor cache
 * (subsequent hits cost one cycle); a block pushed speculatively lands
 * in the remote cache with its reference bit set, so its first use
 * costs one local/remote-cache access (104 cycles) instead of a full
 * remote round trip -- exactly the latency conversion the paper's
 * analytic model assumes (remote -> local).
 *
 * The processor side has one entry point, access(): a hit books
 * itself and returns its latency, which the caller waits out on its
 * own event; a miss issues the demand request and completes through
 * the caller's MemCompletion at the fill. The cache owns no timer on
 * the hit path.
 */

#ifndef MSPDSM_DSM_CACHE_HH
#define MSPDSM_DSM_CACHE_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "net/network.hh"
#include "proto/config.hh"
#include "proto/msg.hh"
#include "proto/shard_table.hh"
#include "sim/eventq.hh"

namespace mspdsm
{

class ObsManager;

/** Cache-side block states (MSI). */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/**
 * Intrusive completion record for one processor-side access.
 *
 * The issuer embeds a MemCompletion (usually as the base of a larger
 * record carrying its own context, e.g. the issue tick) and hands a
 * reference to CacheCtrl::access(); on a miss the cache stores only
 * the pointer and invokes complete() at the fill. Issuing and
 * completing an access therefore allocates nothing and costs one
 * direct call through a function pointer -- no std::function, no
 * virtual dispatch. A hit never touches the record: access() returns
 * its latency and the issuer resumes itself.
 *
 * The completion fires at the tick the fill arrives (curTick()).
 *
 * @param remote true iff the access waited on inter-node coherence
 *        traffic (the paper's "request waiting time"); node-local
 *        service counts as computation.
 */
class MemCompletion
{
  public:
    using Fn = void (*)(MemCompletion &self, bool remote);

    explicit constexpr MemCompletion(Fn fn) : fn_(fn) {}

    /** Deliver the completion now. */
    void complete(bool remote) { fn_(*this, remote); }

  private:
    Fn fn_;
};

/** Cache-side statistics. */
struct CacheStats
{
    Counter demandReads;   //!< reads that issued a GetS
    Counter demandWrites;  //!< writes that issued a GetX or Upgrade
    Counter readHits;      //!< reads served from the node
    Counter writeHits;     //!< writes served from the node
    Counter specServedFr;  //!< first use of an FR-pushed copy
    Counter specServedSwi; //!< first use of an SWI-pushed copy
    Counter specDropped;   //!< speculative copies dropped on race

    // Fault-layer recovery counters; all zero in fault-free runs.
    Counter retries;    //!< demand requests re-issued
    Counter nacks;      //!< Nacks received for the in-flight miss
    Counter timeouts;   //!< retry-timer expiries with no response
    Counter staleFills; //!< fills dropped with no matching miss

    // Always-on latency/shape distributions. Passive fixed-size
    // accounting (base/stats.hh Histogram): sampling is an array
    // increment with no allocation and no timing side effect, so the
    // distributions are recorded in every run, instrumented or not.
    Histogram readMissLat;  //!< demand read miss, issue -> fill
    Histogram writeMissLat; //!< demand write/upgrade, issue -> fill
};

/**
 * The cache controller of one node.
 */
class CacheCtrl
{
  public:
    CacheCtrl(NodeId id, EventQueue &eq, Network &net,
              const ProtoConfig &cfg)
        : id_(id), eq_(eq), net_(net), cfg_(cfg), map_(cfg),
          lines_(map_)
    {
        // access() signals "miss" with a zero latency, so a zero-cost
        // local access is not representable; the paper's machine has
        // none (Table 1 minimums are 1 and 104 cycles).
        fatal_if(cfg.cacheHit == 0 || cfg.memAccess == 0,
                 "cache hit/memory latencies must be non-zero");
    }

    /**
     * Processor-side access to block @p blk. At most one outstanding
     * miss (blocking in-order processor).
     *
     * On a node-local hit, book the hit (statistics, reference and
     * residency bits) and return its latency: 1 cycle in the
     * processor cache, memAccess on the first touch of a
     * remote-cache resident copy. The caller resumes itself after
     * that many ticks and @p done is never used.
     *
     * On a miss, issue the demand transaction and return 0; @p done
     * fires at fill time and must stay valid until then.
     */
    Tick access(BlockId blk, bool is_write, MemCompletion &done);

    /** Network-side handler for Inval/Recall/data/SpecData messages. */
    void handle(const CohMsg &msg);

    /** Statistics. */
    const CacheStats &stats() const { return stats_; }

    /** State of a block, for tests. */
    LineState lineState(BlockId blk) const;

    /** True iff the block is present as an unreferenced spec copy. */
    bool hasUnreferencedSpec(BlockId blk) const;

    // ---- Fault layer (dsm/fault.hh). All optional: a cache with no
    // ---- fault wiring behaves exactly as before, allocation-free.

    /**
     * Arm the NACK/timeout-and-retry FSM: every demand miss sets a
     * retry timer, a Nack or an expiry re-issues the request (to the
     * *current* home, so a re-homed directory is picked up
     * transparently) with bounded deterministic backoff.
     */
    void enableFaults() { faultsEnabled_ = true; }

    /** Share the fault layer's home re-mapping table. */
    void setHomeRemap(const NodeId *table) { map_.setRemap(table); }

    /** Size the line table for @p blocks blocks homed at @p home. */
    void
    reserveShard(NodeId home, std::size_t blocks)
    {
        lines_.reserve(home, blocks);
    }

    /**
     * Fail-stop this node's cache: every line is lost, the in-flight
     * miss (if any) is squashed without completing, and the retry
     * timer is cancelled. The processor side rewinds the
     * squashed access itself.
     */
    void kill();

    /** True iff a demand miss is outstanding (fault sweep uses it). */
    bool missOutstanding() const { return mshr_.valid; }

    /** Attach the observability layer (dsm/system.cc; may be null). */
    void setObs(ObsManager *o) { obs_ = o; }

    /**
     * Visit every valid line of geometric home @p home's blocks as
     * (BlockId, LineState), in local-index order -- the fault layer
     * reconstructs a re-homed directory shard from the survivors'
     * caches with this.
     */
    template <typename F>
    void
    forEachLine(NodeId home, F &&f) const
    {
        lines_.forEachIn(home, [&](BlockId blk, const Line &l) {
            if (l.state != LineState::Invalid)
                f(blk, l.state);
        });
    }

  private:
    struct Line
    {
        LineState state = LineState::Invalid;
        bool inProcCache = false; //!< else remote-cache resident
        bool spec = false;        //!< placed speculatively
        bool referenced = false;  //!< processor has touched it
        SpecTrigger trig = SpecTrigger::None;
    };

    struct Mshr
    {
        bool valid = false;
        BlockId blk = 0;
        bool write = false;
        bool invalidated = false; //!< Inval raced the in-flight fill
        MemCompletion *done = nullptr;
        Tick issued = 0; //!< issue tick (fill latency spans retries)
    };

    /** The block's line (Invalid until first filled). */
    Line &line(BlockId blk) { return lines_[blk]; }

    /** Retry timer for the in-flight miss (fault runs only). */
    struct RetryEvent final : public Event
    {
        explicit RetryEvent(CacheCtrl *c) : cache(c) {}

        void process() override { cache->retryFired(); }

        CacheCtrl *cache;
    };

    /** Retry timer expired with the miss still outstanding. */
    void retryFired();

    /** Issue a request message to the block's home. */
    void sendRequest(MsgType t, BlockId blk, const Line &l);

    /** Deterministic backoff base after a Nack. */
    static constexpr Tick nackBackoffBase = 64;

    /** Bounded retries before the node declares the home unreachable
     * (the structured "exhausted" fatal). */
    static constexpr unsigned retryLimit = 16;

    /**
     * Retry timeout: ticks of silence before a demand miss is
     * re-issued, safely above the worst legitimate round trip (the
     * fault sweep unblocks every fault-stalled transaction at the
     * kill tick itself, so an expiry means a message was lost).
     */
    static constexpr Tick retryTimeout = 20000;

    NodeId id_;
    EventQueue &eq_;
    Network &net_;
    const ProtoConfig &cfg_;
    AddrMap map_; //!< divide-free blockOf/homeOf snapshot of cfg_
    ShardTable<Line> lines_;
    Mshr mshr_;
    RetryEvent retryEvent_{this};

    unsigned retryAttempts_ = 0;
    bool retryAfterNack_ = false; //!< pending timer is a Nack backoff
    bool faultsEnabled_ = false;
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    CacheStats stats_;
};

} // namespace mspdsm

#endif // MSPDSM_DSM_CACHE_HH
