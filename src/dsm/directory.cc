#include "dsm/directory.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dsm/fault.hh"
#include "obs/obs.hh"

namespace mspdsm
{

Directory::Directory(NodeId id, EventQueue &eq, Network &net,
                     const ProtoConfig &cfg,
                     std::vector<PredictorBase *> observers, Vmsp *vmsp,
                     SpecMode mode)
    : id_(id), eq_(eq), net_(net), cfg_(cfg), map_(cfg),
      observers_(std::move(observers)), vmsp_(vmsp), mode_(mode),
      swiTable_(cfg.numNodes), entries_(map_)
{
    panic_if(mode_ != SpecMode::None && !vmsp_,
             "speculation requires a VMSP predictor");
    for (PredictorBase *p : observers_)
        panic_if(p == vmsp_, "the speculation VMSP is fed in service "
                             "order; do not register it as a passive "
                             "observer");
}

DirState
Directory::blockState(BlockId blk) const
{
    const Entry *e = entries_.find(blk);
    return e ? e->state : DirState::Idle;
}

NodeSet
Directory::sharersOf(BlockId blk) const
{
    const Entry *e = entries_.find(blk);
    return e ? e->sharers : NodeSet{};
}

NodeId
Directory::ownerOf(BlockId blk) const
{
    const Entry *e = entries_.find(blk);
    return e ? e->owner : invalidNode;
}

void
Directory::observe(const CohMsg &msg)
{
    if (observers_.empty())
        return;
    SymKind kind;
    switch (msg.type) {
      case MsgType::GetS:
        kind = SymKind::Read;
        break;
      case MsgType::GetX:
        kind = SymKind::Write;
        break;
      case MsgType::Upgrade:
        kind = SymKind::Upgrade;
        break;
      case MsgType::InvAck:
        kind = SymKind::InvAck;
        break;
      case MsgType::WriteBack:
        // A writeback forced by the SWI heuristic is not part of the
        // demand message stream; the predictor never sees it.
        if (msg.speculative)
            return;
        kind = SymKind::WriteBack;
        break;
      default:
        panic("directory observing outgoing message ", msg.toString());
    }
    for (PredictorBase *p : observers_)
        p->observe(msg.blk, PredMsg{kind, msg.src});
}

void
Directory::specObserve(BlockId blk, SymKind kind, NodeId src)
{
    if (vmsp_)
        vmsp_->observe(blk, PredMsg{kind, src});
}

void
Directory::flushFired()
{
    // Pop-and-dispatch every action due on this tick; (due, seq)
    // order reproduces the schedule order the per-action pooled
    // events fired in. Handlers may queue new actions mid-loop --
    // those are due strictly later (every service latency is
    // positive) and re-arm the flush themselves; the final arm below
    // keeps the earliest. Copy-then-index: scheduleKind can insert
    // into (and reallocate) the suffix under us.
    const Tick now = eq_.curTick();
    while (dueHead_ < dueQ_.size() && dueQ_[dueHead_].due <= now) {
        const DueAction a = dueQ_[dueHead_];
        ++dueHead_;
        dispatch(a.kind, a.msg);
    }
    if (dueHead_ == dueQ_.size()) {
        dueQ_.clear(); // keeps capacity
        dueHead_ = 0;
    } else {
        if (dueHead_ >= 64) {
            dueQ_.erase(dueQ_.begin(),
                        dueQ_.begin() +
                            static_cast<std::ptrdiff_t>(dueHead_));
            dueHead_ = 0;
        }
        armFlush(dueQ_[dueHead_].due);
    }
}

void
Directory::dispatch(ActKind kind, const CohMsg &msg)
{
    switch (kind) {
      case ActKind::Send:
        net_.send(msg);
        return;
      case ActKind::ReadReply:
        readReplyFired(msg.blk, msg.dst);
        return;
      case ActKind::Grant:
        grantExcl(entry(msg.blk), msg.blk);
        return;
      case ActKind::WbGetS:
        wbGetSFired(msg.blk);
        return;
      case ActKind::SwiComplete: {
        const BlockId blk = msg.blk;
        completeSwi(entry(blk), blk);
        drain(blk);
        return;
      }
    }
    panic("unknown directory action kind");
}

void
Directory::readReplyFired(BlockId blk, NodeId reader)
{
    Entry &e = entry(blk);
    --e.repliesInFlight;
    CohMsg reply;
    reply.type = MsgType::DataShared;
    reply.src = id_;
    reply.dst = reader;
    reply.blk = blk;
    reply.remoteWork = reader != id_;
    net_.send(reply);
    if (obs_) [[unlikely]]
        obs_->dirInstant("read reply", id_, blk);
    if (specEnabled())
        frCheck(e, blk, reader);
    drain(blk);
}

void
Directory::wbGetSFired(BlockId blk)
{
    Entry &e = entry(blk);
    e.state = DirState::Shared;
    e.sharers.add(e.curReq);
    replicate(e, blk);
    CohMsg reply;
    reply.type = MsgType::DataShared;
    reply.src = id_;
    reply.dst = e.curReq;
    reply.blk = blk;
    reply.remoteWork = true;
    net_.send(reply);
    if (specEnabled())
        frCheck(e, blk, e.curReq);
    drain(blk);
}

void
Directory::handle(const CohMsg &msg)
{
    panic_if(map_.homeOf(msg.blk) != id_,
             "message routed to wrong home: ", msg.toString());
    Entry &e = entry(msg.blk);

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::Upgrade: {
        if (msg.type == MsgType::GetS)
            stats_.reqGetS.inc();
        else if (msg.type == MsgType::GetX)
            stats_.reqGetX.inc();
        else
            stats_.reqUpgrade.inc();

        observe(msg);
        if (specEnabled()) {
            prematureCheck(msg);
            // A request from a node holding an unverified speculative
            // copy verifies it in place (e.g. a migratory upgrade).
            if (e.cold && e.cold->specSent.contains(msg.src))
                verifyCopy(e, msg.blk, msg);
        }
        if (e.hasDeferred() || !canProcess(e, msg.type)) {
            cold(e).deferred.push_back(msg);
            return;
        }
        processRequest(e, msg);
        return;
      }
      case MsgType::InvAck:
        observe(msg);
        onInvAck(e, msg);
        return;
      case MsgType::WriteBack:
        observe(msg);
        onWriteBack(e, msg);
        return;
      default:
        panic("directory received unexpected ", msg.toString());
    }
}

void
Directory::processRequest(Entry &e, const CohMsg &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
        onGetS(e, msg);
        return;
      case MsgType::GetX:
        onWrite(e, msg, false);
        return;
      case MsgType::Upgrade:
        // An upgrade whose copy was invalidated in flight is handled
        // as a full write request (the requester needs data again).
        onWrite(e, msg,
                e.state == DirState::Shared &&
                    e.sharers.contains(msg.src));
        return;
      default:
        panic("processRequest on ", msg.toString());
    }
}

void
Directory::onGetS(Entry &e, const CohMsg &msg)
{
    const BlockId blk = msg.blk;
    const NodeId src = msg.src;
    const Tick now = eq_.curTick();
    specObserve(blk, SymKind::Read, src);

    switch (e.state) {
      case DirState::Idle:
      case DirState::Shared: {
        // Reads pipeline: directory state is updated immediately so
        // concurrent readers overlap their memory accesses; only the
        // data reply is outstanding.
        e.state = DirState::Shared;
        e.sharers.add(src);
        replicate(e, blk);
        ++e.repliesInFlight;
        const Tick fire = now + cfg_.dirLookup + cfg_.memAccess;
        CohMsg m;
        m.blk = blk;
        m.dst = src;
        scheduleKind(ActKind::ReadReply, fire, m);
        return;
      }
      case DirState::Excl: {
        panic_if(e.owner == src, "owner re-requesting read of ", blk);
        e.state = DirState::BusyRecall;
        e.curType = MsgType::GetS;
        e.curReq = src;
        e.curIsSwi = false;
        stats_.recalls.inc();
        CohMsg recall;
        recall.type = MsgType::Recall;
        recall.src = id_;
        recall.dst = e.owner;
        recall.blk = blk;
        sendAt(now + cfg_.dirLookup, recall);
        return;
      }
      default:
        panic("onGetS in transient state for block ", blk);
    }
}

void
Directory::onWrite(Entry &e, const CohMsg &msg, bool upgrade_grant)
{
    const BlockId blk = msg.blk;
    const NodeId src = msg.src;
    const Tick now = eq_.curTick();
    // The VMSP observes this write at grant time (see specObserve's
    // declaration); remember how the requester encoded it.
    e.curWriteSym = msg.type == MsgType::Upgrade ? SymKind::Upgrade
                                                 : SymKind::Write;
    // Fault runs: remember the requester's restart epoch so a grant
    // whose requester crashed mid-transaction can be abandoned.
    if (faults_)
        cold(e).curReqEpoch = faults_->epoch(src);

    switch (e.state) {
      case DirState::Idle: {
        e.state = DirState::BusyService;
        e.curType = MsgType::GetX;
        e.curReq = src;
        e.curUpgradeGrant = false;
        e.curRemote = src != id_;
        scheduleKind(ActKind::Grant,
                     now + cfg_.dirLookup + cfg_.memAccess, blkMsg(blk));
        return;
      }
      case DirState::Shared: {
        NodeSet others = e.sharers;
        others.remove(src);
        e.curType = msg.type;
        e.curReq = src;
        e.curUpgradeGrant = upgrade_grant;
        e.curRemote = src != id_ || !others.empty();
        e.sharers.clear();
        if (others.empty()) {
            // Sole sharer upgrading, or stale sharer list: grant
            // directly (memory access only if data must be sent).
            e.state = DirState::BusyService;
            const Tick fire = now + cfg_.dirLookup +
                              (upgrade_grant ? 0 : cfg_.memAccess);
            scheduleKind(ActKind::Grant, fire, blkMsg(blk));
            return;
        }
        e.state = DirState::BusyInval;
        e.pendingAcks = others.count();
        if (faults_)
            cold(e).ackWait = others;
        for (NodeId o : others) {
            stats_.invals.inc();
            CohMsg inv;
            inv.type = MsgType::Inval;
            inv.src = id_;
            inv.dst = o;
            inv.blk = blk;
            sendAt(now + cfg_.dirLookup, inv);
        }
        return;
      }
      case DirState::Excl: {
        panic_if(e.owner == src, "owner re-requesting write of ", blk);
        e.state = DirState::BusyRecall;
        e.curType = MsgType::GetX;
        e.curReq = src;
        e.curUpgradeGrant = false;
        e.curRemote = true;
        e.curIsSwi = false;
        stats_.recalls.inc();
        CohMsg recall;
        recall.type = MsgType::Recall;
        recall.src = id_;
        recall.dst = e.owner;
        recall.blk = blk;
        sendAt(now + cfg_.dirLookup, recall);
        return;
      }
      default:
        panic("onWrite in transient state for block ", blk);
    }
}

void
Directory::onInvAck(Entry &e, const CohMsg &msg)
{
    panic_if(e.state != DirState::BusyInval,
             "InvAck outside invalidation: ", msg.toString());
    if (specEnabled() && e.cold && e.cold->specSent.contains(msg.src))
        verifyCopy(e, msg.blk, msg);
    panic_if(e.pendingAcks <= 0, "stray InvAck: ", msg.toString());
    if (faults_ && e.cold)
        e.cold->ackWait.remove(msg.src);
    if (--e.pendingAcks == 0) {
        e.state = DirState::BusyService;
        scheduleKind(ActKind::Grant, eq_.curTick() + cfg_.dirLookup,
                     blkMsg(msg.blk));
    }
}

void
Directory::onWriteBack(Entry &e, const CohMsg &msg)
{
    panic_if(e.state != DirState::BusyRecall,
             "WriteBack outside recall: ", msg.toString());
    absorbWriteBack(e, msg.blk);
}

void
Directory::absorbWriteBack(Entry &e, BlockId blk)
{
    e.owner = invalidNode;
    e.state = DirState::BusyService;
    const Tick now = eq_.curTick();

    if (e.curIsSwi) {
        scheduleKind(ActKind::SwiComplete, now + cfg_.memAccess,
                     blkMsg(blk));
        return;
    }
    scheduleKind(e.curType == MsgType::GetS ? ActKind::WbGetS
                                            : ActKind::Grant,
                 now + cfg_.memAccess + cfg_.dirLookup, blkMsg(blk));
}

void
Directory::grantExcl(Entry &e, BlockId blk)
{
    const NodeId w = e.curReq;
    if (faults_ && (faults_->dead(w) ||
                    coldView(e).curReqEpoch != faults_->epoch(w))) {
        // The requester died (and possibly restarted, cache cold)
        // while its write was in service: the grant has no taker, and
        // recording a dead node as owner would wedge the block on a
        // recall nobody can answer. Abandon the transaction; memory
        // already holds the data (writebacks are timing events here).
        stats_.faultAborts.inc();
        e.state = DirState::Idle;
        e.owner = invalidNode;
        e.sharers.clear();
        replicate(e, blk);
        drain(blk);
        return;
    }
    const bool upgrade = e.curUpgradeGrant;
    // All of this write's invalidation acks (with their piggy-backed
    // reference bits) have been folded into the VMSP's open reader
    // vector by now; the write itself closes the vector.
    specObserve(blk, e.curWriteSym, w);
    e.state = DirState::Excl;
    e.owner = w;
    e.sharers.clear();
    replicate(e, blk);

    CohMsg reply;
    reply.type = upgrade ? MsgType::UpgradeAck : MsgType::DataExcl;
    reply.src = id_;
    reply.dst = w;
    reply.blk = blk;
    reply.remoteWork = e.curRemote;
    net_.send(reply);
    if (obs_) [[unlikely]]
        obs_->dirInstant("grant", id_, blk);

    writeCompleted(blk, w);
    drain(blk);
}

void
Directory::drain(BlockId blk)
{
    // The entry reference must be re-fetched each iteration:
    // processing can insert new entries (never for this block, but
    // the map may rehash through speculation on other blocks). The
    // cold record's address is arena-stable, but fetch it through the
    // current entry anyway.
    while (true) {
        Entry &e = entry(blk);
        ColdEntry *c = e.cold;
        if (!c || c->deferred.empty() ||
            !canProcess(e, c->deferred.front().type)) {
            return;
        }
        CohMsg m = c->deferred.front();
        c->deferred.pop_front();
        processRequest(e, m);
    }
}

// --- Speculation -----------------------------------------------------

void
Directory::writeCompleted(BlockId blk, NodeId writer)
{
    Entry &e = entry(blk);

    // A block with no cold record never deferred or speculated:
    // nothing to judge, nothing to reset.
    if (ColdEntry *c = e.cold) {
        // Deferred SWI verdict (see prematureCheck): the ex-owner
        // wrote again; if nobody used the early-forwarded data in the
        // meantime, the invalidation fired too early.
        if (c->swiVerdictPending && c->swiWriteKeyValid && vmsp_) {
            if (!c->specAnyUsed)
                markPremature(e, blk);
        }
        if (c->swiBackoff > 0)
            --c->swiBackoff;

        // A completed write closes both the read phase and any SWI
        // epoch.
        c->phaseTriggered = false;
        c->phaseTrig = SpecTrigger::None;
        c->specKeyValid = false;
        c->misspecPenalized = false;
        c->swiEpoch = false;
        c->swiExOwner = invalidNode;
        c->swiVerdictPending = false;
        c->specAnyUsed = false;
        c->swiWriteKeyValid = false;
    }

    if (!specEnabled() || mode_ != SpecMode::SwiFirstRead)
        return;
    if (auto prev = swiTable_.recordWrite(writer, blk))
        trySwi(*prev, writer);
}

void
Directory::trySwi(BlockId blk, NodeId writer)
{
    Entry *found = entries_.find(blk);
    if (!found)
        return;
    Entry &e = *found;
    if (e.state != DirState::Excl || e.owner != writer ||
        e.hasDeferred()) {
        return;
    }
    auto wk = vmsp_->lastWriteKey(blk);
    if (!wk)
        return;
    if (vmsp_->isPremature(blk, *wk) || coldView(e).swiBackoff > 0) {
        specStats_.swiSuppressed.inc();
        return;
    }

    e.state = DirState::BusyRecall;
    e.curIsSwi = true;
    e.curReq = writer;
    ColdEntry &c = cold(e);
    c.swiExOwner = writer; // premature checks start at launch
    c.swiLaunch = eq_.curTick();
    c.swiWriteKey = *wk;
    c.swiWriteKeyValid = true;
    c.swiVerdictPending = false;
    c.specAnyUsed = false;
    specStats_.swiSent.inc();

    CohMsg recall;
    recall.type = MsgType::Recall;
    recall.src = id_;
    recall.dst = writer;
    recall.blk = blk;
    recall.speculative = true;
    sendAt(c.swiLaunch + cfg_.dirLookup, recall);
}

void
Directory::completeSwi(Entry &e, BlockId blk)
{
    specStats_.swiCompleted.inc();
    e.curIsSwi = false;
    e.state = DirState::Idle;
    ColdEntry &c = cold(e);
    c.swiEpoch = true; // swiExOwner was set at launch
    specStats_.swiLat.sample(eq_.curTick() - c.swiLaunch);
    if (obs_) [[unlikely]]
        obs_->swiSpan(id_, blk, c.swiLaunch);
    replicate(e, blk); // pushSpec refines this if readers exist

    // Trigger the predicted read sequence (Section 4.1): forward the
    // block to every predicted consumer.
    auto readers = vmsp_->predictedReaders(blk);
    if (!readers)
        return;
    auto key = vmsp_->predictionKey(blk);
    if (!key)
        return;
    e.state = DirState::Shared;
    pushSpec(e, blk, *readers, SpecTrigger::Swi, *key);
}

void
Directory::frCheck(Entry &e, BlockId blk, NodeId reader)
{
    if (coldView(e).phaseTriggered)
        return;
    auto readers = vmsp_->predictedReaders(blk);
    if (!readers)
        return;
    auto key = vmsp_->predictionKey(blk);
    if (!key)
        return;
    NodeSet rest = readers->minus(vmsp_->openReaders(blk))
                       .minus(e.sharers);
    rest.remove(reader);
    if (rest.empty())
        return;
    pushSpec(e, blk, rest, SpecTrigger::FirstRead, *key);
}

void
Directory::pushSpec(Entry &e, BlockId blk, NodeSet targets,
                    SpecTrigger trig, const HistoryKey &key)
{
    if (faults_) {
        // Never speculate into a dead node: the push would be dropped
        // at delivery but would still pollute the sharer set and the
        // verification bookkeeping.
        targets = targets.minus(faults_->deadSet());
        if (targets.empty())
            return;
    }
    ColdEntry &c = cold(e);
    c.phaseTriggered = true;
    c.phaseTrig = trig;
    c.specKey = key;
    c.specKeyValid = true;
    c.misspecPenalized = false;
    c.specSent = c.specSent | targets;
    e.sharers = e.sharers | targets;
    replicate(e, blk);

    for (NodeId t : targets) {
        if (trig == SpecTrigger::FirstRead)
            specStats_.specSentFr.inc();
        else
            specStats_.specSentSwi.inc();
        CohMsg push;
        push.type = MsgType::SpecData;
        push.src = id_;
        push.dst = t;
        push.blk = blk;
        push.trigger = trig;
        net_.send(push);
    }
}

void
Directory::prematureCheck(const CohMsg &msg)
{
    Entry &e = entry(msg.blk);
    // curIsSwi covers the whole SWI transaction (recall in flight and
    // the writeback-absorption window); swiEpoch the time after it.
    // Either way the SWI launch (trySwi) created the cold record.
    ColdEntry *c = e.cold;
    const bool in_epoch = (c && c->swiEpoch) || e.curIsSwi;
    if (!in_epoch)
        return;
    panic_if(!c, "SWI epoch without a cold record for ", msg.blk);

    if (msg.src != c->swiExOwner) {
        // Another processor demanded the block after the early
        // invalidation: the producer really was done. Any such
        // consumer progress vouches for the SWI.
        if (msg.type == MsgType::GetS)
            c->specAnyUsed = true;
        return;
    }
    if (!c->swiWriteKeyValid)
        return;

    if (msg.type == MsgType::GetS && !c->specSent.contains(msg.src) &&
        !c->specAnyUsed) {
        // The producer was still reading its own block (e.g.
        // moldyn's producer/consumer phase) and SWI robbed it before
        // any consumer benefited. If a consumer already took the
        // early-forwarded data, the same read is just the producer
        // rejoining the read phase (tomcatv's two-reader pattern).
        markPremature(e, msg.blk);
        c->swiEpoch = false;
        return;
    }

    if (msg.type == MsgType::GetX || msg.type == MsgType::Upgrade) {
        // The producer writes again. Whether SWI was premature
        // depends on whether any *other* processor used the
        // early-forwarded data (the producer referencing its own
        // bounced-back copy does not vouch for the invalidation);
        // the invalidation acknowledgements collected by this very
        // write carry that information, so the verdict is made when
        // the write transaction completes (writeCompleted).
        c->swiVerdictPending = true;
    }
}

void
Directory::markPremature(Entry &e, BlockId blk)
{
    specStats_.swiPremature.inc();
    ColdEntry &c = cold(e);
    // Flag the entry the invalidation was launched from, the entry
    // of the latest write (the vector in front of the write may have
    // shifted since launch), and back the block off while the
    // pattern re-stabilizes.
    if (c.swiWriteKeyValid)
        vmsp_->setPremature(blk, c.swiWriteKey);
    if (auto wk = vmsp_->lastWriteKey(blk))
        vmsp_->setPremature(blk, *wk);
    // Back the block off for a substantial number of writes and
    // escalate on repeat offenders: a block whose pattern keeps
    // flapping around premature invalidations ends up backed off for
    // (nearly) the rest of the run.
    const unsigned shift = std::min(c.swiPrematureCount, 4u);
    c.swiBackoff = 8u << shift;
    ++c.swiPrematureCount;
}

void
Directory::verifyCopy(Entry &e, BlockId blk, const CohMsg &msg)
{
    // Only reached when specSent contains the source, so the cold
    // record exists; allocating a default one here would silently
    // mis-count the verification, so fail loudly instead.
    panic_if(!e.cold, "verifyCopy without a cold record for ", blk);
    ColdEntry &c = *e.cold;
    c.specSent.remove(msg.src);

    if (msg.type == MsgType::GetS) {
        // The push raced the consumer's own demand read and was
        // dropped: the prediction was right but saved nothing.
        specStats_.specDroppedVerified.inc();
        return;
    }

    const bool referenced = msg.copyReferenced;
    const bool from_fr = c.phaseTrig == SpecTrigger::FirstRead;
    if (referenced) {
        // Consumer progress vouches for a pending SWI verdict -- but
        // only *other* processors count: the ex-owner referencing its
        // own bounced-back copy just proves it was robbed.
        if (msg.src != c.swiExOwner)
            c.specAnyUsed = true;
        // A speculatively served read never appears as a request
        // message; credit it into the open reader vector so the
        // pattern that speculation just verified stays learned.
        specObserve(blk, SymKind::Read, msg.src);
        (from_fr ? specStats_.specUsedFr : specStats_.specUsedSwi)
            .inc();
        return;
    }
    (from_fr ? specStats_.specMissFr : specStats_.specMissSwi).inc();
    if (c.specKeyValid && !c.misspecPenalized) {
        // Remove the misspeculated request sequence (Section 4.2).
        vmsp_->eraseEntry(blk, c.specKey);
        c.misspecPenalized = true;
    }
}

// --- Fault layer -----------------------------------------------------

void
Directory::replicate(Entry &e, BlockId blk)
{
    if (!faults_ || !faults_->replicating())
        return;
    faults_->noteShardDelta(blk, e.state == DirState::Excl, e.owner,
                            e.sharers);
}

void
Directory::releaseShard(NodeId home)
{
    entries_.forEachIn(home, [&](BlockId, Entry &e) {
        if (busy(e) || e.hasDeferred() || e.repliesInFlight > 0) {
            // A transaction this interim host was mid-way through is
            // abandoned; the requester's retry FSM re-resolves the
            // home to the restarted victim and re-issues.
            stats_.faultAborts.inc();
        }
        e.sharers.clear();
        e.owner = invalidNode;
        e.curReq = invalidNode;
        e.pendingAcks = 0;
        e.repliesInFlight = 0;
        e.state = DirState::Idle;
        if (ColdEntry *c = e.cold) {
            c->deferred.clear();
            c->specSent.clear();
            c->ackWait.clear();
            c->phaseTriggered = false;
            c->specKeyValid = false;
            c->swiVerdictPending = false;
        }
    });
    // The shard's pending due-actions reference the state just
    // dropped: cancel them, then re-arm the flush for whatever is
    // left (the filtered queue is still due-sorted).
    const auto first =
        dueQ_.begin() + static_cast<std::ptrdiff_t>(dueHead_);
    dueQ_.erase(std::remove_if(first, dueQ_.end(),
                               [&](const DueAction &a) {
                                   return map_.geometricHomeOf(
                                              a.msg.blk) == home;
                               }),
                dueQ_.end());
    if (flush_.scheduled())
        eq_.deschedule(flush_);
    if (dueQ_.size() > dueHead_)
        armFlush(dueQ_[dueHead_].due);
}

void
Directory::failover()
{
    // Cancel every pending directory action: the due-queue holds
    // them all, behind the single flush event.
    if (flush_.scheduled())
        eq_.deschedule(flush_);
    dueQ_.clear();
    dueHead_ = 0;
    entries_.clear();
    coldArena_ = ChunkedVector<ColdEntry>{};
}

void
Directory::adopt(BlockId blk, NodeId holder, bool modified)
{
    Entry &e = entry(blk);
    if (modified) {
        // MSI: a Modified copy excludes all others, so nothing can
        // have been adopted for this block yet (and nothing will be).
        e.state = DirState::Excl;
        e.owner = holder;
    } else {
        e.state = DirState::Shared;
        e.sharers.add(holder);
    }
}

void
Directory::pruneDead(NodeId v)
{
    // Walk in (home, local index) order: the Grant actions scheduled
    // below share one due tick, so the walk order is their order.
    entries_.forEach([&](BlockId blk, Entry &e) {
        if (ColdEntry *c = e.cold) {
            // Requests the dead node had queued die with it; the
            // erase-remove keeps the survivors' arrival order.
            c->deferred.erase(
                std::remove_if(c->deferred.begin(), c->deferred.end(),
                               [v](const CohMsg &m) { return m.src == v; }),
                c->deferred.end());
            c->specSent.remove(v);
        }
        e.sharers.remove(v);

        switch (e.state) {
          case DirState::Excl:
            if (e.owner == v) {
                // The owner's copy is gone; memory still has data.
                e.state = DirState::Idle;
                e.owner = invalidNode;
            }
            break;
          case DirState::BusyRecall:
            if (e.owner == v) {
                // The recall (or its writeback) is lost with the
                // node; absorb the writeback locally as of now.
                absorbWriteBack(e, blk);
            }
            break;
          case DirState::BusyInval: {
            ColdEntry *c = e.cold;
            if (c && c->ackWait.contains(v)) {
                // The dead node can no longer acknowledge -- its copy
                // is gone, which is what the ack would have asserted.
                c->ackWait.remove(v);
                if (--e.pendingAcks == 0) {
                    e.state = DirState::BusyService;
                    scheduleKind(ActKind::Grant,
                                 eq_.curTick() + cfg_.dirLookup,
                                 blkMsg(blk));
                }
            }
            break;
          }
          default:
            break;
        }
    });
}

} // namespace mspdsm
