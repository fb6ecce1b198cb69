/**
 * @file
 * Topology-parameterized interconnect with per-node network
 * interfaces.
 *
 * Contention is modelled at the network interfaces (the paper's
 * Section 6) and, on the link topologies, at the links themselves. We
 * model each node's NI as two serial resources (egress and ingress):
 * a message occupies the NI for niControl or niData cycles depending
 * on whether it carries a block. Flight time comes from the
 * ProtoConfig-selected Topology (src/topo/): the default crossbar
 * gives every pair a dedicated netLatency-cycle path -- exactly the
 * paper's constant-latency switched network -- while ring/mesh2d/
 * torus2d route each message over a deterministic sequence of links,
 * each a serial resource with per-hop wire latency, so flight time is
 * hop-composed and shared links queue. A bounded uniform jitter
 * representing residual switch/controller queueing tops off every
 * remote flight; jitter is what lets concurrently issued invalidation
 * acks arrive re-ordered.
 *
 * Local messages (src == dst, e.g. a processor accessing its own home
 * directory) bypass the NIs and the fabric and are delivered after a
 * single bus cycle.
 */

#ifndef MSPDSM_NET_NETWORK_HH
#define MSPDSM_NET_NETWORK_HH

#include <deque>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "proto/config.hh"
#include "proto/msg.hh"
#include "sim/eventq.hh"
#include "topo/topology.hh"

namespace mspdsm
{

class CacheCtrl;
class Directory;
class FaultManager;
class ObsManager;
struct LinkLossRule;

/**
 * The interconnect. Owns no protocol state; it only moves CohMsg
 * values between nodes with appropriate delays.
 *
 * Remote message motion is *drain-batched*: each destination keeps an
 * arrival-ordered FIFO of in-flight messages, and a single
 * self-rescheduling drain event per node books the ingress NI for
 * every message whose arrival has come and delivers the due one --
 * O(busy periods) event dispatches instead of the former O(messages)
 * arrival+delivery pair per message (see docs/ARCHITECTURE.md,
 * "Batched NI drain"). Local (src == dst) messages share one
 * machine-wide flush event instead. Every send injects at curTick()
 * and every delivery happens at curTick(): nothing in the network
 * runs ahead of the clock.
 *
 * Delivery is statically dispatched: a node attaches its concrete
 * cache controller and home directory, and the network routes each
 * delivered message by type (routesToDirectory()) with two direct
 * calls resolved at link time -- no std::function, no virtual call.
 * Tests and tools that are not a full node attach a raw function
 * pointer plus context instead.
 */
class Network
{
  public:
    /** Raw delivery hook (tests/tools): fn(ctx, msg) at delivery. */
    using RawDeliver = void (*)(void *ctx, const CohMsg &msg);

    /**
     * @param eq event queue driving the simulation
     * @param cfg machine configuration (latencies, node count)
     * @param rng dedicated random stream for jitter
     */
    Network(EventQueue &eq, const ProtoConfig &cfg, Rng rng);

    /**
     * Attach node @p n's protocol agents. Every node must be attached
     * (either overload) before the first send.
     */
    void attach(NodeId n, CacheCtrl &cache, Directory &dir);

    /** Attach a raw delivery hook for node @p n (tests/tools). */
    void attach(NodeId n, RawDeliver fn, void *ctx);

    /** Inject @p msg at its source NI at the current tick. */
    void send(CohMsg msg) { sendImpl(msg, 0); }

    /** Messages sent so far. */
    std::uint64_t messagesSent() const { return sent_.value(); }

    /** Total cycles messages spent queued behind busy NIs. */
    std::uint64_t queueingCycles() const { return queued_.value(); }

    /** Total cycles message heads spent queued behind busy links
     * (always 0 on the crossbar, which has no shared links). */
    std::uint64_t linkQueueingCycles() const { return linkQueued_.value(); }

    /** The routing geometry in force (tests, experiments). */
    const Topology &topology() const { return topo_; }

    /**
     * Attach the fault layer (null in fault-free runs, the default).
     * With it attached, every send is stamped with its source's
     * restart epoch and every delivery is screened: stale-epoch
     * messages are dropped, messages to a dead node are dropped or
     * (for requests) bounced back as a Nack.
     */
    void setFaults(FaultManager *f) { faults_ = f; }

    /**
     * Node @p n's ingress drain event (tests). The fault suite pins
     * that a failover-style mass cancel cannot strand this node's
     * queued arrivals: the fault path never deschedules the drain,
     * and even a forced deschedule is healed by the next send.
     */
    Event &drainEvent(NodeId n) { return ingress_[n].drain; }

    /** In-flight remote messages bound for node @p n (tests). */
    std::size_t
    inFlightTo(NodeId n) const
    {
        return ingress_[n].pq.size() + ingress_[n].ready.size();
    }

    /**
     * Configure deterministic link loss plus the transport recovery
     * layer that makes it survivable (fault runs only; the rules come
     * from FaultPlan::linkLoss). Each rule drops every Nth message
     * head crossing one directed link inside a tick window; a dropped
     * transmission is re-injected at its source after @p delay cycles
     * and re-pays the full egress/link/ingress path. A message that
     * exceeds @p budget transmissions is fatal -- the schedule is a
     * test input, not weather, so exhaustion means the experiment is
     * misconfigured. Never call this on a fault-free run: the member
     * stays null and every send takes the unchecked path.
     */
    void setLinkLoss(const std::vector<LinkLossRule> &rules,
                     unsigned budget, Tick delay);

    /** Transmissions dropped by the loss schedule (0 when inert). */
    std::uint64_t linkDrops() const;

    /** Re-injections performed by the transport layer. */
    std::uint64_t retransmits() const;

    /**
     * Attach the observability layer (null in untraced runs, the
     * default). With it attached, every transmission that reaches its
     * destination's ingress reports its send, and every delivery
     * reports itself -- the tracer pairs the two into flow arrows.
     * Dropped transmissions never report a send, so the pairing
     * survives lossy links.
     */
    void setObs(ObsManager *o) { obs_ = o; }

  private:
    /**
     * Per-node delivery sink: either a (cache, directory) pair routed
     * by message type, or a raw hook. Resolved once at attach time.
     */
    struct Sink
    {
        CacheCtrl *cache = nullptr;
        Directory *dir = nullptr;
        RawDeliver fn = nullptr;
        void *ctx = nullptr;

        bool attached() const { return cache || fn; }
    };

    /**
     * One in-flight *local* message (src == dst): a single bus cycle
     * straight to delivery, no NI involvement. All nodes' local
     * traffic shares one FIFO behind one flush event -- handlers
     * running on the same tick across the machine each put their
     * loopback on the bus together, so flushing them in one dispatch
     * replaces the densest per-message event population left after
     * the ingress drain. Remote messages ride the per-destination
     * drain instead.
     */
    struct LocalPending
    {
        Tick due;
        CohMsg msg;
    };

    /** The single machine-wide local-delivery flush event. */
    struct LocalFlushEvent final : public Event
    {
        void process() override { net->localFlushFired(); }

        Network *net = nullptr;
    };

    /** A remote message waiting for its ingress NI reservation. */
    struct Pending
    {
        Tick arrival;
        std::uint64_t seq; //!< global push order; breaks arrival ties
        CohMsg msg;
    };

    /** Min-heap order for Pending: earliest (arrival, seq) on top --
     * the same order the retired per-message arrival events fired in
     * (event-queue per-tick FIFO == schedule == push order). */
    struct PendingLater
    {
        bool
        operator()(const Pending &a, const Pending &b) const
        {
            if (a.arrival != b.arrival)
                return a.arrival > b.arrival;
            return a.seq > b.seq;
        }
    };

    /** A reserved message riding out its NI occupancy window. */
    struct ReadyMsg
    {
        Tick delivered;
        CohMsg msg;
    };

    /**
     * FIFO of reserved messages: reservations happen in arrival
     * order against a monotone ingressFree_, so delivery ticks are
     * nondecreasing front to back. A ring over a power-of-two vector;
     * it grows to the busy-period high-water mark once, then the
     * steady-state path is allocation-free.
     */
    class ReadyRing
    {
      public:
        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }
        const ReadyMsg &front() const { return buf_[head_]; }

        void
        push(Tick delivered, const CohMsg &msg)
        {
            if (count_ == buf_.size()) [[unlikely]]
                grow();
            buf_[(head_ + count_) & (buf_.size() - 1)] =
                ReadyMsg{delivered, msg};
            ++count_;
        }

        void
        pop()
        {
            head_ = (head_ + 1) & (buf_.size() - 1);
            --count_;
        }

      private:
        void grow();

        std::vector<ReadyMsg> buf_;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };

    /** The per-destination self-rescheduling drain event. */
    struct DrainEvent final : public Event
    {
        void process() override { net->drainFired(node); }

        Network *net = nullptr;
        NodeId node = 0;
    };

    /**
     * One destination's ingress state: unreserved arrivals ordered by
     * (arrival, push seq), reserved messages in delivery order, and
     * the drain event that works both down. Invariant outside a drain
     * dispatch: whenever either queue is non-empty, the drain is
     * scheduled at or before the node's next delivery.
     */
    struct NodeIngress
    {
        std::vector<Pending> pq; //!< binary heap (PendingLater)
        ReadyRing ready;
        DrainEvent drain;
    };

    /** Deliver every local message due this tick; re-arm at next. */
    void localFlushFired();

    /**
     * Arm the local flush for @p t, keeping an already-armed earlier
     * tick (same discipline as armDrain).
     */
    void
    armLocal(Tick t)
    {
        if (localFlush_.scheduled()) {
            if (localFlush_.when() <= t)
                return;
            eq_.deschedule(localFlush_);
        }
        eq_.schedule(t, localFlush_);
    }

    /** Enqueue a remote arrival and keep the drain invariant. */
    void pushIngress(NodeId dst, Tick arrival, const CohMsg &msg);

    /** The drain dispatch: batch reservations, deliver what is due. */
    void drainFired(NodeId n);

    /** Reserve the earliest pending arrival of @p in at node @p n. */
    void reserveHead(NodeId n, NodeIngress &in);

    /**
     * The delivery tick the pending head *will* get when reserved,
     * assuming no earlier arrival is pushed first: the same
     * max(arrival, ingressFree) + occupancy arithmetic reserveHead
     * performs, computed without committing it. Exact unless a later
     * send undercuts the head's arrival -- and pushIngress re-arms
     * the drain earlier whenever that happens, so the drain can
     * sleep straight through to this tick instead of waking at the
     * arrival first.
     */
    Tick
    projectedDelivery(NodeId n, const NodeIngress &in) const
    {
        const Pending &p = in.pq.front();
        const Tick occ = carriesData(p.msg.type) ? cfg_.niData
                                                 : cfg_.niControl;
        return std::max(p.arrival, ingressFree_[n]) + occ;
    }

    /**
     * Schedule the drain at @p t, keeping an already-armed earlier
     * tick (the drain never needs to fire later than any tick it is
     * already set for -- a too-early wake re-arms itself exactly).
     */
    void
    armDrain(NodeIngress &in, Tick t)
    {
        if (in.drain.scheduled()) {
            if (in.drain.when() <= t)
                return;
            eq_.deschedule(in.drain);
        }
        eq_.schedule(t, in.drain);
    }

    /** Hand @p msg to its destination sink (defined in network.cc). */
    void deliver(const CohMsg &msg);

    /**
     * Contend for the destination's ingress NI as of @p arrival:
     * books the queueing delay and the occupancy window, and returns
     * the delivery tick. Pure arithmetic on (arrival, occ) and the
     * monotone ingressFree_ -- its result depends only on the
     * per-destination reservation *order*, never on the wall tick it
     * runs at, which is what lets the drain defer reservations and
     * batch them (the timing-equivalence argument in
     * docs/ARCHITECTURE.md).
     */
    Tick
    reserveIngress(NodeId dst, Tick arrival, Tick occ)
    {
        const Tick start = std::max(arrival, ingressFree_[dst]);
        queued_.inc(start - arrival);
        const Tick delivered = start + occ;
        ingressFree_[dst] = delivered;
        return delivered;
    }

    /**
     * One scheduled re-injection of a dropped transmission. Pooled
     * (with a free list) like the local-delivery events: loss runs
     * reach a steady state where the pool stops growing.
     */
    struct RetransmitEvent final : public Event
    {
        void process() override;

        Network *net = nullptr;
        CohMsg msg{};
        unsigned attempt = 0; //!< transmissions already burned
        RetransmitEvent *nextFree = nullptr;
    };

    /**
     * The loss schedule and the transport state recovering from it.
     * Allocated only by setLinkLoss; the null pointer is the
     * fault-free inertness guarantee (one branch per hop, no
     * arithmetic change).
     */
    struct LossState
    {
        /** A LinkLossRule plus its live crossing counter. */
        struct Rule
        {
            Tick from;
            Tick to;
            std::uint32_t link;
            unsigned everyNth;
            std::uint64_t crossings = 0; //!< matched heads so far
        };

        std::vector<Rule> rules;
        unsigned budget = 8; //!< max transmissions per message
        Tick delay = 400;    //!< drop-to-reinjection latency
        std::deque<RetransmitEvent> pool;
        RetransmitEvent *freeList = nullptr;
        Counter drops;
        Counter resends;
    };

    /**
     * The shared send body. @p attempt counts transmissions already
     * burned on this message: 0 from send(), >= 1 from the retransmit
     * path. Every transmission re-pays egress and link occupancy and
     * counts toward messagesSent() -- retries are real traffic.
     */
    void sendImpl(CohMsg msg, unsigned attempt);

    /**
     * Does the loss schedule claim the head crossing @p link at
     * @p start? Walks every matching rule (advancing each crossing
     * counter) so overlapping rules stay deterministic regardless of
     * which one fires.
     */
    bool lossDropped(std::uint32_t link, Tick start);

    /**
     * Account a drop at @p when and schedule the re-injection, or die
     * if the budget is spent. The links reserved up to and including
     * the drop point stay booked -- the transmission occupied them.
     */
    void dropTransmission(const CohMsg &msg, unsigned attempt, Tick when);

    /** Re-inject a dropped message from its source NI. */
    void retransmitFired(RetransmitEvent &ev);

    /** Sentinel for draining_: no drain loop on the stack. */
    static constexpr NodeId noNode = static_cast<NodeId>(~NodeId{0});

    EventQueue &eq_;
    const ProtoConfig &cfg_;
    Rng rng_;
    BoundedDraw jitter_; //!< [0, netJitter] draw, threshold hoisted
    Topology topo_;      //!< immutable per-pair routes
    std::vector<Sink> sinks_;
    std::vector<Tick> egressFree_; //!< next free tick per source NI
    std::vector<Tick> ingressFree_; //!< next free tick per dest NI
    std::vector<Tick> linkFree_; //!< next free tick per fabric link
    std::vector<Tick> pairLast_; //!< last arrival per (src,dst) pair
    std::vector<NodeIngress> ingress_; //!< per-destination drain state
    /**
     * Machine-wide local traffic in push order from localHead_ on;
     * [0, localHead_) is the flushed prefix. Every push is due at
     * curTick() + 1 and the clock never moves backwards, so push
     * order is due order: pushes append and the flush pops by
     * bumping the index. The prefix is reclaimed whenever the queue
     * drains empty (the common case, keeping capacity), or compacted
     * in place once it outgrows a small bound.
     */
    std::vector<LocalPending> localQ_;
    std::size_t localHead_ = 0; //!< first unflushed localQ_ entry
    LocalFlushEvent localFlush_;
    FaultManager *faults_ = nullptr; //!< fault layer; null = fault-free
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    std::unique_ptr<LossState> loss_; //!< null = lossless (the default)
    NodeId draining_ = noNode; //!< node whose drain loop is on stack
    std::uint64_t pushSeq_ = 0; //!< global arrival-tie sequencer
    Counter sent_;
    Counter queued_;
    Counter linkQueued_;
};

} // namespace mspdsm

#endif // MSPDSM_NET_NETWORK_HH
