/**
 * @file
 * Observability layer: transaction tracing and interval time-series.
 *
 * Three instruments see inside a run instead of only its totals:
 *
 *  - *Transaction tracing*: lifecycle hooks threaded through the
 *    processor, cache controller, directory, network, and fault layer
 *    emit Chrome trace-event JSON (Perfetto-loadable): per-node
 *    tracks, B/E spans for demand misses, X spans for SWI episodes,
 *    flow arrows (s/f) for every cross-component message, and instant
 *    events for speculation outcomes, retries, and faults. A tick
 *    window ([from, to]) filters emission so dense runs stay
 *    tractable; spans and flows are emitted at *completion* time, when
 *    both endpoints are known, so the filter can never produce a
 *    dangling begin or an unmatched flow id.
 *  - *Interval time-series*: an every-N-ticks sampler records
 *    cumulative machine counters (ops, messages, events, predictor
 *    lookups/hits) and instantaneous state (outstanding misses,
 *    retransmits in flight), turning e.g. fig11's three-point
 *    before/during/after readout into an actual recovery timeline.
 *  - *Latency histograms* are deliberately NOT here: they are passive
 *    fixed-size accounting (base/stats.hh Histogram) that lives
 *    always-on in the per-component stats blocks.
 *
 * Gating mirrors the fault layer exactly: an empty ObsConfig (the
 * default) constructs no ObsManager at all, every hook site is a
 * null-pointer check, and unconfigured runs stay bit-identical and
 * allocation-free.
 */

#ifndef MSPDSM_OBS_OBS_HH
#define MSPDSM_OBS_OBS_HH

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "base/types.hh"
#include "proto/msg.hh"
#include "sim/eventq.hh"

namespace mspdsm
{

class CacheCtrl;
class CompiledWorkload;
class Network;
class PredictorBase;
class Processor;
struct ProtoConfig;

/**
 * Observability configuration. Empty (the default) means no
 * ObsManager is constructed and the machine runs bit-identically to
 * an uninstrumented one.
 */
struct ObsConfig
{
    /** Chrome trace-event JSON output path; empty disables tracing. */
    std::string tracePath;

    /** Only activity inside [traceFrom, traceTo] is emitted. */
    Tick traceFrom = 0;
    Tick traceTo = maxTick;

    /** Time-series sampling period, ticks; 0 disables the sampler. */
    Tick sampleInterval = 0;

    bool
    empty() const
    {
        return tracePath.empty() && sampleInterval == 0;
    }
};

/**
 * One point of the interval time-series. Counter fields are
 * cumulative machine totals as of the sample tick (consumers diff
 * adjacent samples for rates); the last two are instantaneous.
 */
struct IntervalSample
{
    Tick tick = 0;
    std::uint64_t ops = 0;              //!< executed trace ops
    std::uint64_t messages = 0;         //!< network messages sent
    std::uint64_t eventsDispatched = 0; //!< kernel dispatches
    std::uint64_t predLookups = 0;      //!< predictor predictions made
    std::uint64_t predHits = 0;         //!< ... that verified correct
    std::uint64_t outstandingMisses = 0;   //!< MSHRs in flight now
    std::uint64_t retransmitsInFlight = 0; //!< dropped, not yet resent
};

/**
 * Executes an ObsConfig against an assembled machine: owns the trace
 * sink and the sampler. Constructed by DsmSystem only when the config
 * is non-empty; components reach it through a null-checked pointer
 * (setObs), exactly like the fault layer.
 */
class ObsManager
{
  public:
    /**
     * @param eq the machine's event queue
     * @param net the interconnect (sampler reads traffic totals)
     * @param cfg machine configuration (geometry)
     * @param ocfg the instrument configuration; must be non-empty
     * @param caches,procs per-node agents, index == NodeId
     * @param preds per-node speculation predictors (entries may be
     *        null; sampler reads accuracy totals)
     */
    ObsManager(EventQueue &eq, Network &net, const ProtoConfig &cfg,
               ObsConfig ocfg, std::vector<CacheCtrl *> caches,
               std::vector<Processor *> procs,
               std::vector<PredictorBase *> preds);
    ~ObsManager();

    ObsManager(const ObsManager &) = delete;
    ObsManager &operator=(const ObsManager &) = delete;

    /**
     * The workload being run: trace `blk` args name its blocks by
     * their source ids (address / blockSize), not by the compiled
     * numbering. Null (the default) prints ids as they are. Not
     * owned: @p w must outlive the run it is set for, which
     * DsmSystem::run already requires of its workload.
     */
    void setWorkload(const CompiledWorkload *w) { workload_ = w; }

    // ---- Trace hooks. All are cheap no-ops when tracing is off
    // ---- (only the sampler was configured). Every hook fires at
    // ---- the moment it reports, so instants and span ends are
    // ---- stamped with curTick().

    /**
     * A message was handed to the transport and *will* be delivered
     * (the network calls this after any loss-rule drop, so dropped
     * transmissions never enter the matcher; a retransmit re-enters
     * as a fresh send). Each (src,dst) pair delivers in send order --
     * remote arrivals are strictly monotone per pair and local ones
     * are due one tick after their send -- so the pair's pending
     * sends form a FIFO.
     */
    void msgSent(const CohMsg &msg);

    /**
     * A message reached the delivery funnel (before any fault
     * screen). Pops the pair's oldest pending send and emits the
     * flow-arrow pair (s at the send tick on the source track, f now
     * on the destination track).
     */
    void msgDelivered(const CohMsg &msg);

    /** A demand miss issued at @p issue filled: B/E span on the
     * node's track. */
    void missSpan(NodeId n, BlockId blk, bool write, Tick issue);

    /** Speculation lifecycle instant ("spec place"/"use"/"drop"). */
    void specInstant(const char *what, NodeId n, BlockId blk);

    /** Retry-FSM instant ("nack backoff"/"timeout retry"). */
    void retryInstant(const char *what, NodeId n, BlockId blk,
                      unsigned attempt);

    /** Directory action instant ("grant"/"read reply"). */
    void dirInstant(const char *what, NodeId home, BlockId blk);

    /** An SWI episode launched at @p launch completed: X span on the
     * home's dir track. */
    void swiSpan(NodeId home, BlockId blk, Tick launch);

    /** Fault-layer instant ("kill"/"restart"/"rehome"/...). */
    void faultInstant(const char *what, NodeId n);

    /** Processor lifecycle instant ("trace done"). */
    void procInstant(const char *what, NodeId n);

    // ---- Results.

    /** The sampled time-series (empty when the sampler is off). */
    const std::vector<IntervalSample> &series() const { return series_; }

    /** Close the trace sink (idempotent; DsmSystem::run calls it). */
    void finish();

    /** The configuration in force. */
    const ObsConfig &config() const { return cfg_; }

  private:
    /** The self-rescheduling sampling timer. */
    struct SampleEvent final : public Event
    {
        explicit SampleEvent(ObsManager *m) : mgr(m) {}

        void process() override { mgr->sampleFired(); }

        ObsManager *mgr;
    };


    void sampleFired();
    void takeSample();

    /** True iff [a, b] lies inside the trace window. */
    bool inWindow(Tick a, Tick b) const
    {
        return a >= cfg_.traceFrom && b <= cfg_.traceTo;
    }

    /** Write the record separator and bump the first-event flag. */
    void emitPrefix();

    /** Emit one instant event on track @p tid at curTick(). */
    void instant(const char *name, const char *cat, unsigned tid,
                 BlockId blk, bool hasBlk);

    /** Source id of compiled block @p blk for a trace arg. */
    BlockId sourceBlock(BlockId blk) const;

    /** Directory tracks live above the cache/processor tracks. */
    static constexpr unsigned dirTidBase = 1000;

    EventQueue &eq_;
    Network &net_;
    ObsConfig cfg_;
    unsigned numNodes_;
    std::vector<CacheCtrl *> caches_;
    std::vector<Processor *> procs_;
    std::vector<PredictorBase *> preds_;
    const CompiledWorkload *workload_ = nullptr;

    std::FILE *out_ = nullptr; //!< trace sink; null = tracing off
    bool first_ = true;        //!< no event emitted yet (JSON commas)
    std::uint64_t nextFlowId_ = 0;
    //! Per-(src,dst) send ticks of undelivered messages, FIFO.
    std::vector<std::deque<Tick>> pend_;

    SampleEvent sampleEvent_{this};
    std::vector<IntervalSample> series_;
};

} // namespace mspdsm

#endif // MSPDSM_OBS_OBS_HH
