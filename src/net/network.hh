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

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "proto/config.hh"
#include "proto/msg.hh"
#include "sim/eventq.hh"
#include "sim/tick_queue.hh"
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
 * Remote message motion is *drain-batched*: each destination keeps
 * its in-flight messages in one TickQueue keyed by arrival, and a
 * single self-rescheduling drain event per node wakes at the head's
 * delivery tick, books the ingress NI for it and delivers it -- one
 * dispatch per delivery, folding every further due head into the
 * same dispatch, instead of the former arrival+delivery event pair
 * per message (see docs/ARCHITECTURE.md, "Batched NI drain"). Local
 * (src == dst) messages share one machine-wide flush event over a
 * TickQueue instead. Every send injects at curTick() and every
 * delivery happens at curTick(): nothing in the network runs ahead
 * of the clock.
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
    std::size_t inFlightTo(NodeId n) const { return ingress_[n].q.size(); }

    /**
     * Configure deterministic link loss plus the transport recovery
     * layer that makes it survivable (fault runs only; the rules come
     * from FaultPlan::linkLoss). Each rule drops every Nth message
     * head crossing one directed link inside a tick window; a dropped
     * transmission is re-injected at its source after retransmitDelay
     * cycles and re-pays the full egress/link/ingress path. A message
     * that exceeds retransmitBudget transmissions is fatal -- the
     * schedule is a test input, not weather, so exhaustion means the
     * experiment is misconfigured. Never call this on a fault-free
     * run: the member stays null and every send takes the unchecked
     * path.
     */
    void setLinkLoss(const std::vector<LinkLossRule> &rules);

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
     * The single machine-wide local-delivery flush event. Handlers
     * running on the same tick across the machine each put their
     * loopback on the bus together, so one dispatch delivers them
     * all. Remote messages ride the per-destination drain instead.
     */
    struct LocalFlushEvent final : public Event
    {
        void process() override { net->localFlushFired(); }

        Network *net = nullptr;
    };

    /** The per-destination self-rescheduling drain event. */
    struct DrainEvent final : public Event
    {
        void process() override { net->drainFired(node); }

        Network *net = nullptr;
        NodeId node = 0;
    };

    /**
     * One destination's ingress state: its in-flight messages keyed
     * by arrival (equal arrivals in push order -- the order the
     * retired per-message arrival events fired in) and the drain
     * event that delivers them. Invariant outside a drain dispatch:
     * whenever the queue is non-empty, the drain is scheduled at or
     * before the head's delivery tick.
     */
    struct NodeIngress
    {
        TickQueue<CohMsg> q;
        DrainEvent drain;
    };

    /** Ingress/egress NI occupancy of a message of @p type. */
    Tick
    occupancy(MsgType type) const
    {
        return carriesData(type) ? cfg_.niData : cfg_.niControl;
    }

    /**
     * The delivery tick of node @p n's ingress head:
     * max(arrival, ingressFree) + occupancy. The NI is booked in
     * queue order at delivery, so the value is final unless a later
     * send undercuts the head's arrival -- which pushIngress answers
     * by re-arming earlier, and which cannot happen once the tick
     * has come (see drainFired).
     */
    Tick
    headDelivery(NodeId n) const
    {
        const TickQueue<CohMsg>::Item &h = ingress_[n].q.front();
        return std::max(h.tick, ingressFree_[n]) + occupancy(h.val.type);
    }

    /** Deliver every local message due this tick; re-arm at next. */
    void localFlushFired();

    /** Enqueue a remote arrival and keep the drain invariant. */
    void pushIngress(NodeId dst, Tick arrival, const CohMsg &msg);

    /** The drain dispatch: book the NI for and deliver every head
     * whose delivery tick has come; re-arm at the next one. */
    void drainFired(NodeId n);

    /** Hand @p msg to its destination sink (defined in network.cc). */
    void deliver(const CohMsg &msg);

    /**
     * Answer request @p msg, which its destination cannot serve, with
     * a Nack from that destination so the sender's retry FSM backs
     * off and re-resolves the home. Sent as the destination with its
     * *current* epoch, so it passes the stale-epoch screen.
     */
    void bounce(const CohMsg &msg);

    /**
     * One scheduled re-injection of a dropped transmission. Pooled
     * (with a free list): loss runs reach a steady state where the
     * pool stops growing.
     */
    struct RetransmitEvent final : public Event
    {
        void process() override;

        Network *net = nullptr;
        CohMsg msg{};
        unsigned attempt = 0; //!< transmissions already burned
        RetransmitEvent *nextFree = nullptr;
    };

    /** Max transmissions per message under link loss. */
    static constexpr unsigned retransmitBudget = 8;
    /** Drop-to-reinjection latency, ticks. */
    static constexpr Tick retransmitDelay = 400;

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
     * Machine-wide local traffic, keyed by due tick. Every push is
     * due at curTick() + 1 and the clock never moves backwards, so
     * every push appends.
     */
    TickQueue<CohMsg> localQ_;
    LocalFlushEvent localFlush_;
    FaultManager *faults_ = nullptr; //!< fault layer; null = fault-free
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    std::unique_ptr<LossState> loss_; //!< null = lossless (the default)
    NodeId draining_ = noNode; //!< node whose drain loop is on stack
    Counter sent_;
    Counter queued_;
    Counter linkQueued_;
};

} // namespace mspdsm

#endif // MSPDSM_NET_NETWORK_HH
