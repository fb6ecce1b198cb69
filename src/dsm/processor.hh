/**
 * @file
 * Trace-driven blocking processor and the global barrier.
 *
 * Each processor replays its trace in order: compute delays (a
 * standalone Compute op, or the prefix folded into a Read/Write)
 * advance local time, memory operations go through one call to the
 * cache controller (a hit returns its latency and the processor
 * resumes itself; a miss blocks until the fill completes it), and
 * barriers synchronize all processors. The processor classifies each
 * memory stall as remote request waiting time (the quantity Figure 9
 * breaks out) or computation: hits are always local, and a fill
 * carries the cache's remote-work flag.
 */

#ifndef MSPDSM_DSM_PROCESSOR_HH
#define MSPDSM_DSM_PROCESSOR_HH

#include <vector>

#include "base/types.hh"
#include "dsm/cache.hh"
#include "sim/eventq.hh"
#include "workload/compiled_trace.hh"

namespace mspdsm
{

/**
 * Global barrier across all processors. The paper charges barrier
 * wait time to computation (Figure 9's "comp" includes barrier
 * synchronization and lock spinning), which falls out naturally here
 * because barrier waiting is not remote request waiting.
 *
 * Waiters park their own resume Event; on release every waiter is
 * scheduled `cost` ticks out in arrival order, which preserves the
 * resume ordering the previous callback-based release produced.
 */
class GlobalBarrier
{
  public:
    GlobalBarrier(EventQueue &eq, unsigned parties, Tick cost)
        : eq_(eq), parties_(parties), cost_(cost)
    {
        waiting_.reserve(parties);
    }

    /**
     * Arrive now; @p resume fires when all parties have arrived (the
     * last arrival's tick anchors the release).
     */
    void arrive(Event &resume);

    /** Number of completed barrier episodes. */
    std::uint64_t episodes() const { return episodes_; }

    /**
     * Withdraw a parked waiter (fault layer: the waiter's node died).
     * The episode still requires all parties, so the survivors stall
     * until the node restarts and re-arrives -- that stall *is* the
     * recovery cost the fault experiments measure.
     * @return true iff @p resume was parked and has been removed
     */
    bool removeWaiter(const Event &resume);

  private:
    EventQueue &eq_;
    unsigned parties_;
    Tick cost_;
    std::vector<Event *> waiting_;
    std::uint64_t episodes_ = 0;
};

/** Per-processor execution statistics. */
struct ProcStats
{
    Tick requestWait = 0; //!< stall on remote coherence transactions
    Tick memWait = 0;     //!< all memory stall (incl. local)
    Tick finishTick = 0;  //!< completion time
    std::uint64_t ops = 0; //!< ops executed (fused computes count
                           //!< once, a folded prefix as its own op)
};

/**
 * A blocking, in-order, trace-driven processor executing a compiled
 * op stream.
 *
 * The processor owns a single StepEvent: a blocking in-order core has
 * at most one pending continuation (compute-delay expiry, hit
 * completion, or barrier resume), so every reschedule reuses the same
 * pre-allocated object. Likewise its outstanding-access table is a
 * single embedded AccessRecord (the intrusive MemCompletion handed to
 * the cache plus the issue tick), so a memory operation is issued and
 * completed without allocating or copying a callback.
 *
 * step() executes exactly one op per dispatch, at curTick(): a
 * compute delay or a cache hit schedules the step event at its
 * completion tick (CacheCtrl::access() returns the hit latency), a
 * miss leaves the access with the cache (whose fill re-enters
 * step()), and a barrier parks the step event at the barrier. A
 * Read/Write with a compute prefix takes two dispatches: the first
 * counts and waits out the prefix exactly as a standalone Compute op
 * did and sets prefixDone_, the second issues the access. The flag
 * is the only state the fold adds, and kill() keeps it across a
 * rewind, so a restart re-issues only the access.
 */
class Processor
{
  public:
    Processor(NodeId id, EventQueue &eq, CacheCtrl &cache,
              GlobalBarrier &barrier)
        : id_(id), eq_(eq), cache_(cache), barrier_(barrier),
          stepEvent_(this), access_(this)
    {}

    /** Begin executing @p trace at the current tick. */
    void
    start(const CompiledTrace &trace)
    {
        trace_ = trace;
        started_ = true;
        pc_ = 0;
        done_ = false;
        prefixDone_ = false;
        eq_.scheduleAfter(0, stepEvent_);
    }

    /** True when the trace has been fully executed. */
    bool done() const { return done_; }

    /** Execution statistics. */
    const ProcStats &stats() const { return stats_; }

    /** This processor's node id. */
    NodeId id() const { return id_; }

    // ---- Fault layer (dsm/fault.hh). Optional; a processor with no
    // ---- fault wiring behaves exactly as before.

    /** Attach the fault layer (for the post-restart progress report). */
    void setFaults(FaultManager *f) { faults_ = f; }

    /** Attach the observability layer (may be null). */
    void setObs(ObsManager *o) { obs_ = o; }

    /**
     * Fail-stop: stop executing. A pending between-ops resume is
     * descheduled (and its tick remembered); an op in flight -- a
     * blocked memory access the cache kill squashes, or a barrier
     * arrival being withdrawn -- is rewound so the restarted
     * processor re-executes it.
     */
    void kill();

    /**
     * Resume execution now (or at the remembered resume tick if that
     * lies later). The first step() dispatch afterwards reports
     * progress to the fault layer.
     */
    void restart();

  private:
    struct StepEvent final : public Event
    {
        explicit StepEvent(Processor *p) : proc(p) {}

        void process() override { proc->step(); }

        Processor *proc;
    };

    /**
     * The blocking core's one-entry outstanding-access table: the
     * completion record the cache controller signals, carrying the
     * issue tick the stall accounting needs.
     */
    struct AccessRecord final : public MemCompletion
    {
        explicit AccessRecord(Processor *p)
            : MemCompletion(&AccessRecord::fired), proc(p)
        {}

        static void
        fired(MemCompletion &self, bool remote)
        {
            auto &r = static_cast<AccessRecord &>(self);
            r.proc->accessDone(r, remote);
        }

        Processor *proc;
        Tick issued = 0;
    };

    /** Execute the next op. */
    void step();

    /** The cache completed the outstanding access. */
    void accessDone(AccessRecord &r, bool remote);

    NodeId id_;
    EventQueue &eq_;
    CacheCtrl &cache_;
    GlobalBarrier &barrier_;
    StepEvent stepEvent_;
    AccessRecord access_;
    CompiledTrace trace_;
    std::size_t pc_ = 0;
    bool started_ = false;
    bool done_ = false;
    bool prefixDone_ = false; //!< trace_[pc_]'s compute prefix ran
    FaultManager *faults_ = nullptr; //!< fault layer; null = fault-free
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    Tick resumeAt_ = 0;        //!< descheduled resume tick (kill)
    bool resumeNotify_ = false; //!< report the next step() dispatch
    ProcStats stats_;
};

} // namespace mspdsm

#endif // MSPDSM_DSM_PROCESSOR_HH
