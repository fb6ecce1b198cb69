#include "dsm/fault.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dsm/cache.hh"
#include "dsm/directory.hh"
#include "dsm/processor.hh"
#include "net/network.hh"
#include "obs/obs.hh"

namespace mspdsm
{

FaultManager::FaultManager(EventQueue &eq, Network &net,
                           const ProtoConfig &cfg, FaultPlan plan,
                           std::vector<CacheCtrl *> caches,
                           std::vector<Directory *> dirs,
                           std::vector<Processor *> procs,
                           std::vector<std::vector<PredictorBase *>>
                               nodePreds)
    : eq_(eq), net_(net), cfg_(cfg), map_(cfg), plan_(std::move(plan)),
      caches_(std::move(caches)), dirs_(std::move(dirs)),
      procs_(std::move(procs)), nodePreds_(std::move(nodePreds)),
      remap_(cfg.numNodes), epoch_(cfg.numNodes, 0)
{
    const unsigned n = cfg_.numNodes;
    fatal_if(plan_.empty(), "FaultManager built with an empty plan");
    fatal_if(plan_.backup != invalidNode && plan_.backup >= n,
             "fault backup node ", plan_.backup, " out of range");
    for (unsigned i = 0; i < n; ++i)
        remap_[i] = static_cast<NodeId>(i);
    if (plan_.replicateShards)
        deltaBacklog_.assign(n, 0);
    if (!plan_.linkLoss.empty())
        net_.setLinkLoss(plan_.linkLoss);

    // Wire the whole machine: epoch screen at the network, shared
    // re-map table and retry FSM at every node, progress reporting at
    // every processor.
    net_.setFaults(this);
    for (unsigned i = 0; i < n; ++i) {
        caches_[i]->enableFaults();
        caches_[i]->setHomeRemap(remap_.data());
        dirs_[i]->setFaults(this);
        dirs_[i]->setHomeRemap(remap_.data());
        procs_[i]->setFaults(this);
    }

    for (const FaultEvent &fe : plan_.events) {
        fatal_if(fe.node >= n,
                 "fault plan names node ", fe.node, " of ", n);
        PlanEvent &pe = planEvents_.emplace_back(this, fe.kind, fe.node);
        eq_.schedule(fe.tick, pe);
    }
    outcome_.faulted = true;
}

NodeId
FaultManager::successor(NodeId from) const
{
    const unsigned n = cfg_.numNodes;
    for (unsigned step = 1; step < n; ++step) {
        const NodeId w = static_cast<NodeId>((from + step) % n);
        if (!dead(w))
            return w;
    }
    return from;
}

NodeId
FaultManager::backupFor(NodeId v) const
{
    // An explicit backup is honored verbatim, even when it is dead or
    // the victim itself (the documented retry-exhaustion path);
    // otherwise the deterministic succession order picks the first
    // live node after the victim.
    if (plan_.backup != invalidNode)
        return plan_.backup;
    return successor(v);
}

std::uint64_t
FaultManager::totalOps() const
{
    std::uint64_t ops = 0;
    for (const Processor *p : procs_)
        ops += p->stats().ops;
    return ops;
}

void
FaultManager::planFired(PlanEvent &e)
{
    switch (e.kind) {
      case FaultKind::Kill:
        killNode(e.node);
        break;
      case FaultKind::Restart:
        restartNode(e.node);
        break;
    }
}

void
FaultManager::rehome(NodeId h, NodeId to)
{
    if (to == h && dead(h))
        return; // pathological explicit backup == dead victim
    // Survivor sweep: reconstruct the shard from the surviving
    // caches, exactly the sharing information a recovery protocol
    // would collect. Each contributing node other than the new host
    // also sends one RehomeSync over the real interconnect, so
    // reconstruction has a network cost -- unless the plan replicates
    // shards, whose ShardSync traffic already paid it incrementally.
    for (std::size_t s = 0; s < caches_.size(); ++s) {
        const NodeId sn = static_cast<NodeId>(s);
        if (dead(sn))
            continue;
        bool contributed = false;
        caches_[s]->forEachLine(h, [&](BlockId blk, LineState st) {
            dirs_[to]->adopt(blk, sn, st == LineState::Modified);
            contributed = true;
        });
        if (!contributed || sn == to || plan_.replicateShards)
            continue;
        ++outcome_.rehomeSyncs;
        CohMsg m;
        m.type = MsgType::RehomeSync;
        m.src = sn;
        m.dst = to;
        m.blk = 0;
        net_.send(m);
    }
}

void
FaultManager::killNode(NodeId v)
{
    fatal_if(dead(v), "fault plan kills node ", v, " twice");
    const Tick now = eq_.curTick();
    verbose("fault: kill node ", v, " at tick ", now);
    if (obs_) [[unlikely]]
        obs_->faultInstant("kill", v);

    // Fail-stop: from this instant every message the node launched
    // before the crash is recognizably stale (epoch bump) and every
    // message addressed to it bounces or vanishes (dead set).
    deadSet_.add(v);
    ++epoch_[v];
    procs_[v]->kill();
    caches_[v]->kill();
    dirs_[v]->failover();

    // Re-home the victim's directory shard: one write into the
    // indirection table every AddrMap in the machine shares.
    const NodeId b = backupFor(v);
    remap_[v] = b;
    if (obs_) [[unlikely]]
        obs_->faultInstant("rehome", b);

    // Every surviving directory prunes the dead node from its own
    // bookkeeping (sharer sets, pending acks, owned blocks).
    for (std::size_t d = 0; d < dirs_.size(); ++d) {
        const NodeId dn = static_cast<NodeId>(d);
        if (dn != v && !dead(dn))
            dirs_[d]->pruneDead(v);
    }

    // The backup rebuilds the victim's shard from the survivors'
    // caches (see rehome()).
    rehome(v, b);

    // Cascading failure: every shard the victim was hosting as a
    // backup (its own failover() just dumped their entries) re-homes
    // again, to the next live node in the succession order of the
    // shard's geometric home, and reconstruction re-runs there. Any
    // reconstruction traffic still in flight toward the dead backup
    // is screened by the dead set like all other traffic.
    for (std::size_t h = 0; h < remap_.size(); ++h) {
        const NodeId hn = static_cast<NodeId>(h);
        if (hn == v || remap_[h] != v)
            continue;
        const NodeId next = successor(hn);
        remap_[h] = next;
        rehome(hn, next);
    }

    // The victim's predictor state dies with it: restart is cold.
    for (PredictorBase *p : nodePreds_[v])
        p->reset();

    if (outcome_.killTick == 0)
        outcome_.killTick = now; // first kill anchors the outage
    outcome_.opsAtKill = totalOps();
}

void
FaultManager::restartNode(NodeId v)
{
    fatal_if(!dead(v), "fault plan restarts node ", v,
             " which is not down");
    const Tick now = eq_.curTick();
    verbose("fault: restart node ", v, " at tick ", now);
    if (obs_) [[unlikely]]
        obs_->faultInstant("restart", v);
    deadSet_.remove(v);

    // Fail-back: the restarted victim re-adopts its original shard
    // through the same indirection table. The epoch is bumped again
    // so the fail-back is a recognizable boundary, the interim host
    // releases the shard's entries (aborting transactions it was
    // mid-way through -- the requesters' retry FSM re-resolves the
    // home), and the shard state is rebuilt at the victim by a
    // survivor sweep. In-flight messages still aimed at the interim
    // host are screened at delivery by the currentHome() check.
    ++epoch_[v];
    const NodeId host = remap_[v];
    if (host != v && !dead(host)) {
        dirs_[host]->releaseShard(v);
        ++outcome_.failbacks;
        if (obs_) [[unlikely]]
            obs_->faultInstant("failback", host);
    }
    remap_[v] = v;
    rehome(v, v);

    awaiting_.add(v);
    procs_[v]->restart();
    outcome_.restartTick = now;
    outcome_.opsAtRestart = totalOps();
}

void
FaultManager::noteProgress(NodeId n)
{
    if (awaiting_.contains(n)) {
        awaiting_.remove(n);
        outcome_.recoveredTick =
            std::max(outcome_.recoveredTick, eq_.curTick());
    }
}

void
FaultManager::noteShardDelta(BlockId blk)
{
    const NodeId h = map_.geometricHomeOf(blk);
    ++outcome_.shardDeltas;

    // Batched replication traffic: every shardSyncBatch deltas the
    // acting home flushes one ShardSync to the shard's designated
    // backup over the real interconnect.
    if (++deltaBacklog_[h] < shardSyncBatch)
        return;
    deltaBacklog_[h] = 0;
    const NodeId src = remap_[h];
    const NodeId dst =
        plan_.backup != invalidNode ? plan_.backup : successor(src);
    if (src == dst || dead(src) || dead(dst))
        return;
    ++outcome_.shardSyncs;
    CohMsg m;
    m.type = MsgType::ShardSync;
    m.src = src;
    m.dst = dst;
    m.blk = blk; // the delta that filled the batch
    net_.send(m);
}

} // namespace mspdsm
