#include "net/network.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dsm/cache.hh"
#include "dsm/directory.hh"
#include "dsm/fault.hh"
#include "obs/obs.hh"

namespace mspdsm
{

Network::Network(EventQueue &eq, const ProtoConfig &cfg, Rng rng)
    : eq_(eq), cfg_(cfg), rng_(rng),
      jitter_(0, cfg.netJitter),
      topo_(cfg),
      sinks_(cfg.numNodes),
      egressFree_(cfg.numNodes, 0),
      ingressFree_(cfg.numNodes, 0),
      linkFree_(topo_.numLinks(), 0),
      pairLast_(std::size_t{cfg.numNodes} * cfg.numNodes, 0),
      ingress_(cfg.numNodes)
{
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        ingress_[n].drain.net = this;
        ingress_[n].drain.node = n;
    }
    localFlush_.net = this;
}

void
Network::attach(NodeId n, CacheCtrl &cache, Directory &dir)
{
    panic_if(n >= sinks_.size(), "attach: node ", n, " out of range");
    sinks_[n] = Sink{&cache, &dir, nullptr, nullptr};
}

void
Network::attach(NodeId n, RawDeliver fn, void *ctx)
{
    panic_if(n >= sinks_.size(), "attach: node ", n, " out of range");
    panic_if(!fn, "attach: null delivery hook for node ", n);
    sinks_[n] = Sink{nullptr, nullptr, fn, ctx};
}

void
Network::deliver(const CohMsg &msg)
{
    // Before the fault screens: a message dropped or bounced below
    // still physically reached this NI, and the tracer's per-pair
    // pairing state must advance for every transmission it recorded
    // a send for.
    if (obs_) [[unlikely]]
        obs_->msgDelivered(msg);
    if (faults_) [[unlikely]] {
        // Epoch screen: a message stamped before its sender's crash
        // must not mutate post-recovery state. Dropping it here --
        // the single delivery funnel -- is what makes "all in-flight
        // traffic of the victim is lost" an invariant rather than a
        // per-handler case analysis.
        if (msg.srcEpoch != faults_->epoch(msg.src)) {
            faults_->noteStaleDropped();
            return;
        }
        if (faults_->dead(msg.dst)) {
            // Requests bounce instead of waiting out the sender's
            // full timeout; everything else to a dead node is lost.
            if (isRequest(msg.type))
                bounce(msg);
            else
                faults_->noteDeadDropped();
            return;
        }
        if (routesToDirectory(msg.type) &&
            faults_->currentHome(msg.blk) != msg.dst) {
            // Home screen: the indirection table swung (re-home,
            // cascade, or fail-back) while this message was in
            // flight, so the destination directory no longer hosts
            // the block's shard. Requests bounce (the sender's retry
            // FSM re-resolves the home); acks and writebacks for the
            // abandoned transaction vanish.
            if (isRequest(msg.type))
                bounce(msg);
            else
                faults_->noteMisrouted();
            return;
        }
    }
    const Sink &s = sinks_[msg.dst];
    if (s.cache) [[likely]] {
        // A full node: route by message type. Requests and
        // acknowledgements go to the home directory, commands and
        // data responses to the cache controller.
        if (routesToDirectory(msg.type))
            s.dir->handle(msg);
        else
            s.cache->handle(msg);
        return;
    }
    s.fn(s.ctx, msg);
}

void
Network::bounce(const CohMsg &msg)
{
    faults_->noteNackSent();
    CohMsg nack;
    nack.type = MsgType::Nack;
    nack.src = msg.dst;
    nack.dst = msg.src;
    nack.blk = msg.blk;
    send(nack);
}

void
Network::sendImpl(CohMsg msg, unsigned attempt)
{
    panic_if(msg.src >= cfg_.numNodes || msg.dst >= cfg_.numNodes,
             "send: bad endpoints in ", msg.toString());
    panic_if(!sinks_[msg.dst].attached(), "send: node ", msg.dst,
             " has no sink");
    if (faults_ && attempt == 0) [[unlikely]]
        msg.srcEpoch = faults_->epoch(msg.src);
    sent_.inc();

    const Tick now = eq_.curTick();

    if (msg.src == msg.dst) {
        // Local traffic (processor to its own home directory and
        // back) crosses only the node's bus.
        localQ_.push(now + 1, msg);
        if (obs_) [[unlikely]]
            obs_->msgSent(msg);
        eq_.scheduleBy(now + 1, localFlush_);
        return;
    }

    const Tick occ = occupancy(msg.type);

    // Egress NI: serialize injection.
    const Tick inject_start = std::max(now, egressFree_[msg.src]);
    queued_.inc(inject_start - now);
    const Tick departure = inject_start + occ;
    egressFree_[msg.src] = departure;

    // Flight time: the topology's route. A crossbar route is a
    // dedicated path (zero shared links, flat netLatency); a link
    // route walks its hops in order, the message head contending for
    // each link as it goes. Links, like the egress NI, reserve in
    // *injection* order right here, at send time.
    const Topology::Route &rt = topo_.route(msg.src, msg.dst);
    Tick head = departure;
    if (rt.hops == 0) [[likely]] {
        head += rt.flight;
    } else {
        // Cut-through: the head moves on after the hop's wire
        // latency while the link stays occupied for the message's
        // transfer time, serializing any later message's head.
        const LinkId *ls = topo_.links(rt);
        const Tick lat = topo_.linkLatency();
        for (std::uint16_t h = 0; h < rt.hops; ++h) {
            const Tick start = std::max(head, linkFree_[ls[h]]);
            linkQueued_.inc(start - head);
            linkFree_[ls[h]] = start + occ;
            if (loss_ && lossDropped(ls[h], start)) [[unlikely]] {
                // The transmission occupied every link up to and
                // including the drop point; those reservations stand.
                // It never arrives, so no jitter draw and no pair-FIFO
                // clamp -- point-to-point order across a drop is NOT
                // preserved, which is exactly the reordering the
                // epoch/Nack-retry FSMs must already tolerate.
                dropTransmission(msg, attempt, start);
                return;
            }
            head = start + lat;
        }
    }

    // Queueing jitter on top. Point-to-point order between one
    // (src,dst) pair is preserved by clamping arrival times to be
    // monotone per pair -- a property the protocol relies on (e.g. a
    // data grant must not be overtaken by a subsequent recall from
    // the same home). Messages from *different* sources still race.
    Tick arrival = head;
    if (cfg_.netJitter > 0)
        arrival += jitter_(rng_);
    const std::size_t pair = msg.src * cfg_.numNodes + msg.dst;
    if (arrival <= pairLast_[pair])
        arrival = pairLast_[pair] + 1;
    pairLast_[pair] = arrival;

    // Hand the message to the destination's ingress queue. Its drain
    // event books the ingress NI in arrival order, ties in push order
    // -- the exact firing order of the retired per-message arrival
    // events -- and delivers; no per-message event is scheduled.
    if (obs_) [[unlikely]]
        obs_->msgSent(msg);
    pushIngress(msg.dst, arrival, msg);
}

void
Network::setLinkLoss(const std::vector<LinkLossRule> &rules)
{
    if (rules.empty())
        return;
    fatal_if(topo_.numLinks() == 0,
             "link-loss rules need a link topology; the crossbar has "
             "no shared links to drop on");
    loss_ = std::make_unique<LossState>();
    loss_->rules.reserve(rules.size());
    for (const LinkLossRule &r : rules) {
        fatal_if(r.everyNth == 0,
                 "link-loss rule with everyNth == 0 (use no rule "
                 "instead of a never-firing one)");
        fatal_if(r.link >= topo_.numLinks(), "link-loss rule names "
                 "link ", r.link, " but the topology has only ",
                 topo_.numLinks());
        fatal_if(r.from >= r.to, "link-loss rule window [", r.from,
                 ", ", r.to, ") is empty");
        loss_->rules.push_back({r.from, r.to, r.link, r.everyNth});
    }
}

std::uint64_t
Network::linkDrops() const
{
    return loss_ ? loss_->drops.value() : 0;
}

std::uint64_t
Network::retransmits() const
{
    return loss_ ? loss_->resends.value() : 0;
}

bool
Network::lossDropped(std::uint32_t link, Tick start)
{
    bool drop = false;
    for (LossState::Rule &r : loss_->rules) {
        if (r.link != link || start < r.from || start >= r.to)
            continue;
        if (++r.crossings % r.everyNth == 0)
            drop = true;
    }
    return drop;
}

void
Network::dropTransmission(const CohMsg &msg, unsigned attempt, Tick when)
{
    loss_->drops.inc();
    fatal_if(attempt + 1 >= retransmitBudget,
             "transport: retransmit budget (", retransmitBudget,
             ") exhausted for ", msg.toString(),
             " -- the loss schedule starves this flow");
    RetransmitEvent *ev = loss_->freeList;
    if (ev)
        loss_->freeList = ev->nextFree;
    else
        ev = &loss_->pool.emplace_back();
    ev->net = this;
    ev->msg = msg;
    ev->attempt = attempt + 1;
    eq_.schedule(when + retransmitDelay, *ev);
}

void
Network::RetransmitEvent::process()
{
    net->retransmitFired(*this);
}

void
Network::retransmitFired(RetransmitEvent &ev)
{
    const CohMsg msg = ev.msg;
    const unsigned attempt = ev.attempt;
    ev.nextFree = loss_->freeList;
    loss_->freeList = &ev;
    loss_->resends.inc();
    sendImpl(msg, attempt);
}

void
Network::pushIngress(NodeId dst, Tick arrival, const CohMsg &msg)
{
    NodeIngress &in = ingress_[dst];
    in.q.push(arrival, msg);

    // Inside this destination's own drain loop the push does not
    // arm: the loop re-arms the drain itself on exit.
    if (dst == draining_)
        return;
    // Arm the drain for the head's delivery tick. A push that
    // undercuts the head becomes the head and moves the arm earlier;
    // any other push leaves it. The max() only matters after an
    // external deschedule (the fault-suite scenario): this push heals
    // it.
    eq_.scheduleBy(std::max(headDelivery(dst), eq_.curTick()), in.drain);
}

void
Network::drainFired(NodeId n)
{
    NodeIngress &in = ingress_[n];
    const Tick now = eq_.curTick();
    // The drain event is off the queue for the whole loop (it just
    // fired, and pushIngress leaves it unarmed while draining_ names
    // this node); the loop re-arms it once on exit instead of around
    // every delivery.
    draining_ = n;
    while (!in.q.empty()) {
        const Tick d = headDelivery(n);
        if (d > now) {
            eq_.schedule(d, in.drain);
            break; // an empty queue stays idle: the next push arms
        }
        // Book the ingress NI for the head as it delivers. Its
        // arrival lies strictly before d <= now, and every send from
        // here on arrives after now, so nothing can undercut it: the
        // NI is booked in arrival order, ties in push order, and
        // booking is order-only arithmetic, so booking at delivery
        // gives the ticks booking at arrival would. Copy and pop first -- the
        // handler may send to this very node.
        const TickQueue<CohMsg>::Item head = in.q.front();
        in.q.pop();
        queued_.inc(d - occupancy(head.val.type) - head.tick);
        ingressFree_[n] = d;
        deliver(head.val);
        // Loop on: the handler may have queued more work for this
        // node, and further due deliveries fold into this same
        // dispatch instead of costing one each.
    }
    draining_ = noNode;
}

void
Network::localFlushFired()
{
    // Deliver everything due on this tick in push order -- the same
    // order the retired per-message events fired in for any one
    // node's stream. Handlers may push new locals mid-loop; those are
    // due next tick and never fold into this flush.
    const Tick now = eq_.curTick();
    while (localQ_.due(now)) {
        const CohMsg msg = localQ_.front().val;
        localQ_.pop();
        deliver(msg);
    }
    if (!localQ_.empty())
        eq_.scheduleBy(localQ_.front().tick, localFlush_);
}

} // namespace mspdsm
