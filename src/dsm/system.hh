/**
 * @file
 * Top-level speculative coherent DSM: configuration, assembly of the
 * sixteen nodes (processor, cache controller, home directory,
 * predictor), and the run/statistics interface the harness, examples,
 * and tests use. This is the library's main entry point.
 */

#ifndef MSPDSM_DSM_SYSTEM_HH
#define MSPDSM_DSM_SYSTEM_HH

#include <deque>
#include <memory>
#include <vector>

#include "dsm/cache.hh"
#include "dsm/directory.hh"
#include "dsm/fault.hh"
#include "dsm/processor.hh"
#include "net/network.hh"
#include "obs/obs.hh"
#include "pred/predictor.hh"
#include "pred/seq_predictor.hh"
#include "pred/vmsp.hh"
#include "proto/config.hh"
#include "sim/eventq.hh"
#include "spec/spec.hh"
#include "workload/compiled_trace.hh"
#include "workload/trace.hh"

namespace mspdsm
{

/** Which predictor to attach at each home directory. */
enum class PredKind : std::uint8_t
{
    None,
    Cosmos,
    Msp,
    Vmsp,
};

/** @return printable predictor name. */
const char *predKindName(PredKind k);

/** A passive accuracy observer attached to every home directory. */
struct ObserverSpec
{
    PredKind kind = PredKind::Msp;
    std::size_t depth = 1;
};

/** Full configuration of one simulated machine instance. */
struct DsmConfig
{
    ProtoConfig proto;                   //!< Table 1 parameters
    PredKind pred = PredKind::None;      //!< speculation-driving
                                         //!< predictor (must be Vmsp
                                         //!< when spec != None)
    std::size_t historyDepth = 1;        //!< its history depth
    SpecMode spec = SpecMode::None;      //!< speculation mode
    /**
     * Additional passive observers: several predictors can measure
     * accuracy on the same run since observation never perturbs the
     * protocol (the paper's Base-DSM accuracy methodology).
     */
    std::vector<ObserverSpec> observers;
    Tick tickLimit = Tick{1} << 40;      //!< deadlock guard
    /**
     * Fault schedule; empty (the default) means no FaultManager is
     * constructed and the machine runs bit-identically to the
     * pre-fault-layer code.
     */
    FaultPlan faults;

    /**
     * Observability instruments (tracing, interval sampling); empty
     * (the default) means no ObsManager is constructed -- the same
     * gating discipline as the fault plan. The always-on latency
     * histograms are independent of this and filled in every run.
     */
    ObsConfig obs;
};

/** Per-observer accuracy/storage results. */
struct ObserverResult
{
    std::string name;      //!< predictor name
    std::size_t depth = 1; //!< history depth
    PredStats stats;
    StorageReport storage;
};

/** How a simulation run ended. */
enum class RunStatus : std::uint8_t
{
    Completed, //!< queue drained, every processor finished its trace
    TickLimit, //!< DsmConfig::tickLimit hit with events still pending
               //!< (livelock/deadlock guard) -- results are partial
};

/** Aggregated results of one simulation run. */
struct RunResult
{
    RunStatus status = RunStatus::Completed;

    /** Convenience: the run finished cleanly. */
    bool completed() const { return status == RunStatus::Completed; }

    Tick execTicks = 0;          //!< wall-clock of the run
    double avgRequestWait = 0.0; //!< mean per-proc remote wait, ticks
    double avgMemWait = 0.0;     //!< mean per-proc total memory stall

    // Demand request volume (denominators for Table 5).
    std::uint64_t reads = 0;  //!< demand read misses + spec-served
    std::uint64_t writes = 0; //!< demand write/upgrade misses

    // Speculation-driving predictor, aggregated across directories.
    PredStats pred;
    StorageReport storage;

    // Passive observers, in DsmConfig::observers order.
    std::vector<ObserverResult> observers;

    // Speculation outcome, aggregated across directories/caches.
    std::uint64_t specSentFr = 0;
    std::uint64_t specSentSwi = 0;
    std::uint64_t specMissFr = 0;
    std::uint64_t specMissSwi = 0;
    std::uint64_t specServedFr = 0;  //!< reads absorbed by FR pushes
    std::uint64_t specServedSwi = 0; //!< reads absorbed by SWI pushes
    std::uint64_t specDropped = 0;
    std::uint64_t swiSent = 0;
    std::uint64_t swiPremature = 0;
    std::uint64_t swiSuppressed = 0;

    std::uint64_t messages = 0; //!< total network messages
    //! Event-kernel dispatches over the run: the transport-efficiency
    //! denominator the batched NI drain attacks (dense runs used to
    //! pay ~2.4 events per message; see docs/ARCHITECTURE.md).
    std::uint64_t eventsDispatched = 0;
    std::uint64_t barrierEpisodes = 0;

    /** Events dispatched per network message (0 with no traffic). */
    double
    eventsPerMessage() const
    {
        return messages ? static_cast<double>(eventsDispatched) /
                              static_cast<double>(messages)
                        : 0.0;
    }

    // Interconnect contention (NI serialization and per-link queueing).
    std::uint64_t queueingCycles = 0;
    std::uint64_t linkQueueingCycles = 0;

    /** Fault/recovery outcome; all-zero when no FaultPlan was set. */
    FaultOutcome fault;

    // Always-on latency/shape distributions, merged across nodes
    // (log2 buckets; base/stats.hh). missLat combines read and write
    // demand misses -- issue to fill, retries included -- which is
    // the tail the fault and lossy-link axes stretch.
    Histogram missLat; //!< demand miss latency (read + write)

    // Percentiles of missLat, precomputed for tables and sweep JSON.
    double missLatP50 = 0.0;
    double missLatP90 = 0.0;
    double missLatP99 = 0.0;

    /** Sampling period of `series` (0 = sampler off, series empty). */
    Tick seriesInterval = 0;

    /** Interval time-series (DsmConfig::obs.sampleInterval > 0). */
    std::vector<IntervalSample> series;
};

/**
 * One simulated CC-NUMA machine.
 *
 * Usage:
 * @code
 *   DsmConfig cfg;
 *   cfg.pred = PredKind::Vmsp;
 *   cfg.spec = SpecMode::SwiFirstRead;
 *   DsmSystem sys(cfg);
 *   RunResult r = sys.run(workload.traces);
 * @endcode
 */
class DsmSystem
{
  public:
    explicit DsmSystem(const DsmConfig &cfg);
    ~DsmSystem();

    DsmSystem(const DsmSystem &) = delete;
    DsmSystem &operator=(const DsmSystem &) = delete;

    /**
     * Execute one trace per processor to completion. Compiles the
     * traces with this system's address map first; callers that run
     * the same workload more than once should compile once and use
     * the CompiledWorkload overload (the harness workload cache does
     * exactly that).
     * @param traces exactly numNodes traces
     * @return aggregated statistics
     */
    RunResult run(const std::vector<Trace> &traces);

    /**
     * Execute a pre-compiled workload (one span per processor). The
     * workload must have been compiled for this system's block
     * geometry; it is read-only and may be shared across concurrent
     * runs. It must stay alive for the whole pending run, not just
     * this call: a TickLimit trip returns with resumable step events
     * whose CompiledTrace spans point into the workload's arena, so
     * the caller may only destroy it once the run has drained (the
     * trace overload keeps its own compilation alive on the system
     * for exactly this reason).
     */
    RunResult run(const CompiledWorkload &w);

    /**
     * Block id of byte address @p a under the numbering of the last
     * workload run (invalidBlock if it never touched @p a); before
     * any run, the bare address / blockSize. Tests look machine
     * state up through this. The system keeps only a pointer to a
     * workload passed to run(const CompiledWorkload &), so that
     * workload must outlive every blockOf() call after the run; the
     * trace overload's own compilation lives on the system.
     */
    BlockId blockOf(Addr a) const;

    /** Access a node's cache controller (tests). */
    CacheCtrl &cache(NodeId n) { return caches_[n]; }

    /** Access a node's directory (tests). */
    Directory &directory(NodeId n) { return dirs_[n]; }

    /** Access a node's speculation predictor, may be null (tests). */
    PredictorBase *predictor(NodeId n) { return preds_[n].get(); }

    /** Access a node's i-th passive observer (tests). */
    PredictorBase *
    observer(NodeId n, std::size_t i)
    {
        return obs_[n][i].get();
    }

    /** The event queue (tests). */
    EventQueue &eventQueue() { return eq_; }

    /** The fault manager; null unless the config has a plan (tests). */
    FaultManager *faultManager() { return faults_.get(); }

    /** The obs manager; null unless the config has instruments. */
    ObsManager *obsManager() { return obsMgr_.get(); }

    /** The configuration in force. */
    const DsmConfig &config() const { return cfg_; }

  private:
    /** Barrier release latency, cycles. */
    static constexpr Tick barrierCost = 50;

    DsmConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<PredictorBase>> preds_;
    //! per node, per ObserverSpec: passive observers
    std::vector<std::vector<std::unique_ptr<PredictorBase>>> obs_;
    // Concrete per-node agents, built in place: a deque never moves
    // an element on emplace_back, so the network's delivery sinks
    // and the agents' cross-pointers stay valid.
    std::deque<CacheCtrl> caches_;
    std::deque<Directory> dirs_;
    std::unique_ptr<GlobalBarrier> barrier_;
    std::deque<Processor> procs_;
    //! Constructed only when cfg_.faults is non-empty: the fault-free
    //! machine carries no fault machinery at all.
    std::unique_ptr<FaultManager> faults_;
    //! Constructed only when cfg_.obs is non-empty: the untraced
    //! machine carries no instrumentation machinery at all.
    std::unique_ptr<ObsManager> obsMgr_;
    //! Workload compiled by run(const std::vector<Trace>&); owned by
    //! the system (not the call's stack frame) because a TickLimit
    //! trip leaves the queue resumable with spans into its arena.
    std::unique_ptr<const CompiledWorkload> ownedWorkload_;
    //! The workload of the last run(): its block numbering. Not
    //! owned; see blockOf() for the lifetime rule.
    const CompiledWorkload *workload_ = nullptr;
};

} // namespace mspdsm

#endif // MSPDSM_DSM_SYSTEM_HH
