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
 * reference to CacheCtrl::access(); the cache stores only the pointer
 * and invokes complete() when the access finishes. Issuing and
 * completing an access therefore allocates nothing and costs one
 * direct call through a function pointer -- no std::function, no
 * virtual dispatch.
 *
 * The completion fires at the tick the access completes (curTick()).
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
    Histogram specUseDist;  //!< speculative push -> first use
    Histogram retryDepth;   //!< retry-FSM attempt depth per backoff
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
        // tryHit() signals "miss" with a zero latency, so a zero-cost
        // local access is not representable; the paper's machine has
        // none (Table 1 minimums are 1 and 104 cycles).
        fatal_if(cfg.cacheHit == 0 || cfg.memAccess == 0,
                 "cache hit/memory latencies must be non-zero");
    }

    /**
     * Processor-side access. At most one outstanding miss (blocking
     * in-order processor); @p done fires when the access completes
     * and must stay valid until then.
     */
    void access(Addr addr, bool is_write, MemCompletion &done);

    /**
     * access() by precompiled block id. Node-local hits complete
     * through the cache's own timer as in access().
     */
    void accessBlock(BlockId blk, bool is_write, MemCompletion &done);

    /**
     * Hit probe: if the access can be served node-locally, book the
     * hit (statistics, reference/residency bits) and return its
     * latency; the *completion is the caller's to schedule*. On a
     * miss, return 0 with no side effects beyond creating the line.
     * The processor absorbs a hit-eligible op's hit into its own step
     * event this way instead of bouncing through hitEvent_.
     */
    Tick tryHit(BlockId blk, bool is_write);

    /**
     * Issue the demand transaction for an access that tryHit()
     * declined. @p done fires at fill time.
     */
    void issueMiss(BlockId blk, bool is_write, MemCompletion &done);

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

    /**
     * Configure the bounded-retry FSM: @p limit retries before the
     * structured "exhausted" fatal, @p timeout ticks of silence before
     * a demand miss is re-issued. The defaults reproduce the original
     * hard-coded policy bit for bit (DsmConfig carries the same
     * defaults); fig11 sweeps them via --retry-limit/--stale-timeout.
     */
    void
    setRetryPolicy(unsigned limit, Tick timeout)
    {
        fatal_if(limit == 0 || timeout == 0,
                 "retry limit and stale timeout must be non-zero");
        retryLimit_ = limit;
        retryTimeout_ = timeout;
    }

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
     * miss (if any) is squashed without completing, and all pending
     * cache timers are cancelled. The processor side rewinds the
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
        Tick specPush = 0; //!< placement tick of the spec copy
                           //!< (push-to-use distance accounting)
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

    /**
     * Completion timer for node-local hits. The processor is blocking
     * and in-order, so at most one hit completion is pending at a
     * time: one pre-allocated event per cache suffices.
     */
    struct HitEvent final : public Event
    {
        explicit HitEvent(CacheCtrl *c) : cache(c) {}

        void process() override { cache->hitDone(); }

        CacheCtrl *cache;
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

    /** HitEvent fired: deliver the stored completion. */
    void hitDone();

    /** Retry timer expired with the miss still outstanding. */
    void retryFired();

    /** Issue a request message to the block's home. */
    void sendRequest(MsgType t, BlockId blk, const Line &l);

    /** Deterministic backoff base after a Nack. */
    static constexpr Tick nackBackoffBase = 64;

    NodeId id_;
    EventQueue &eq_;
    Network &net_;
    const ProtoConfig &cfg_;
    AddrMap map_; //!< divide-free blockOf/homeOf snapshot of cfg_
    ShardTable<Line> lines_;
    Mshr mshr_;
    HitEvent hitEvent_{this};
    MemCompletion *hitDone_ = nullptr;
    RetryEvent retryEvent_{this};

    /** Bounded retries before the node declares the home unreachable
     * (DsmConfig::retryLimit; default reproduces the original cap). */
    unsigned retryLimit_ = 16;

    /**
     * Retry timeout (DsmConfig::staleTimeout): safely above the worst
     * legitimate round trip (the fault sweep unblocks every
     * fault-stalled transaction at the kill tick itself, so an expiry
     * means a message was lost).
     */
    Tick retryTimeout_ = 20000;

    unsigned retryAttempts_ = 0;
    bool retryAfterNack_ = false; //!< pending timer is a Nack backoff
    bool faultsEnabled_ = false;
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    CacheStats stats_;
};

} // namespace mspdsm

#endif // MSPDSM_DSM_CACHE_HH
