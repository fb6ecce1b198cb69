#include "dsm/cache.hh"

#include "base/logging.hh"
#include "obs/obs.hh"

namespace mspdsm
{

LineState
CacheCtrl::lineState(BlockId blk) const
{
    const Line *l = lines_.find(blk);
    return l ? l->state : LineState::Invalid;
}

bool
CacheCtrl::hasUnreferencedSpec(BlockId blk) const
{
    const Line *l = lines_.find(blk);
    return l && l->state != LineState::Invalid && l->spec &&
           !l->referenced;
}

void
CacheCtrl::hitDone()
{
    MemCompletion *done = hitDone_;
    hitDone_ = nullptr;
    done->complete(false);
}

void
CacheCtrl::kill()
{
    lines_.clear();
    mshr_ = Mshr{};
    if (hitEvent_.scheduled())
        eq_.deschedule(hitEvent_);
    hitDone_ = nullptr;
    if (retryEvent_.scheduled())
        eq_.deschedule(retryEvent_);
    retryAttempts_ = 0;
    retryAfterNack_ = false;
}

void
CacheCtrl::retryFired()
{
    if (!mshr_.valid)
        return;
    if (retryAfterNack_) {
        // Planned re-issue after a Nack backoff (already counted).
        retryAfterNack_ = false;
    } else {
        stats_.timeouts.inc();
        ++retryAttempts_;
        fatal_if(retryAttempts_ > retryLimit_, "cache ", id_,
                 ": exhausted ", retryLimit_,
                 " retries for block ", mshr_.blk,
                 "; home unreachable");
        stats_.retryDepth.sample(retryAttempts_);
        if (obs_) [[unlikely]]
            obs_->retryInstant("timeout retry", id_, mshr_.blk,
                               retryAttempts_);
    }
    stats_.retries.inc();
    // Re-derive the request from the *current* line state (an Inval
    // may have raced the dead home) and re-resolve the home through
    // the re-map table, so the retry lands at the backup directory.
    const Line &l = line(mshr_.blk);
    const MsgType t = mshr_.write
                          ? (l.state == LineState::Shared
                                 ? MsgType::Upgrade
                                 : MsgType::GetX)
                          : MsgType::GetS;
    sendRequest(t, mshr_.blk, l);
    eq_.scheduleAfter(retryTimeout_, retryEvent_);
}

void
CacheCtrl::sendRequest(MsgType t, BlockId blk, const Line &l)
{
    CohMsg m;
    m.type = t;
    m.src = id_;
    m.dst = map_.homeOf(blk);
    m.blk = blk;
    m.hadCopy = l.state != LineState::Invalid;
    m.copyWasSpec = l.spec;
    m.copyReferenced = l.referenced;
    net_.send(m);
}

Tick
CacheCtrl::tryHit(BlockId blk, bool is_write)
{
    panic_if(mshr_.valid, "blocking processor accessed during a miss");
    Line &l = line(blk);
    if (is_write ? l.state != LineState::Modified
                 : l.state == LineState::Invalid)
        return 0;

    if (is_write) {
        stats_.writeHits.inc();
    } else {
        stats_.readHits.inc();
        if (l.spec && !l.referenced) {
            // A speculative push absorbed this read: the remote
            // access the paper's model converts into a local one.
            if (l.trig == SpecTrigger::FirstRead)
                stats_.specServedFr.inc();
            else if (l.trig == SpecTrigger::Swi)
                stats_.specServedSwi.inc();
            stats_.specUseDist.sample(eq_.curTick() - l.specPush);
            if (obs_) [[unlikely]]
                obs_->specInstant("spec use", id_, blk);
        }
    }
    // First touch of a remote-cache resident block (including every
    // speculatively pushed copy) costs a local access; afterwards the
    // block lives in the processor cache.
    const Tick lat = l.inProcCache ? cfg_.cacheHit : cfg_.memAccess;
    l.inProcCache = true;
    l.referenced = true;
    return lat;
}

void
CacheCtrl::issueMiss(BlockId blk, bool is_write, MemCompletion &done)
{
    panic_if(mshr_.valid, "blocking processor issued a second miss");
    const Line &l = line(blk);
    mshr_.valid = true;
    mshr_.blk = blk;
    mshr_.write = is_write;
    mshr_.invalidated = false;
    mshr_.done = &done;
    mshr_.issued = eq_.curTick();
    if (!is_write) {
        stats_.demandReads.inc();
        sendRequest(MsgType::GetS, blk, l);
    } else {
        stats_.demandWrites.inc();
        sendRequest(l.state == LineState::Shared ? MsgType::Upgrade
                                                 : MsgType::GetX,
                    blk, l);
    }
    if (faultsEnabled_) {
        // Timeout-and-retry: if the home dies with this request (or
        // its reply) in flight, the message is dropped and only this
        // timer recovers the transaction.
        retryAfterNack_ = false;
        eq_.scheduleAfter(retryTimeout_, retryEvent_);
    }
}

void
CacheCtrl::accessBlock(BlockId blk, bool is_write, MemCompletion &done)
{
    if (const Tick lat = tryHit(blk, is_write)) {
        // Local completion through the cache's own timer (the
        // processor schedules its own resume for hit-eligible ops
        // instead and never comes through here on their hits).
        panic_if(hitEvent_.scheduled(),
                 "cache ", id_, ": overlapping hit completions");
        hitDone_ = &done;
        eq_.scheduleAfter(lat, hitEvent_);
        return;
    }
    issueMiss(blk, is_write, done);
}

void
CacheCtrl::access(Addr addr, bool is_write, MemCompletion &done)
{
    accessBlock(map_.blockOf(addr), is_write, done);
}

void
CacheCtrl::handle(const CohMsg &msg)
{
    Line &l = line(msg.blk);
    switch (msg.type) {
      case MsgType::Inval: {
        // Acknowledge with the copy's speculation/reference state
        // piggy-backed (Section 4.2 verification).
        CohMsg ack;
        ack.type = MsgType::InvAck;
        ack.src = id_;
        ack.dst = msg.src;
        ack.blk = msg.blk;
        ack.hadCopy = l.state != LineState::Invalid;
        ack.copyWasSpec = l.spec;
        ack.copyReferenced = l.referenced;
        if (mshr_.valid && mshr_.blk == msg.blk) {
            // The invalidation raced our in-flight demand fill. The
            // fill still satisfies the blocked access (it was
            // serialized before this writer at the home), but the
            // copy must not survive in the cache.
            mshr_.invalidated = true;
            ack.copyReferenced = true; // the demand access is the use
        }
        l.state = LineState::Invalid;
        l.spec = false;
        l.referenced = false;
        l.inProcCache = false;
        net_.send(ack);
        return;
      }
      case MsgType::Recall: {
        panic_if(l.state != LineState::Modified,
                 "Recall for a block not owned: ", msg.toString());
        CohMsg wb;
        wb.type = MsgType::WriteBack;
        wb.src = id_;
        wb.dst = msg.src;
        wb.blk = msg.blk;
        wb.hadCopy = true;
        wb.speculative = msg.speculative;
        l.state = LineState::Invalid;
        l.spec = false;
        l.referenced = false;
        l.inProcCache = false;
        net_.send(wb);
        return;
      }
      case MsgType::SpecData: {
        if ((mshr_.valid && mshr_.blk == msg.blk) ||
            l.state != LineState::Invalid) {
            // Race with an in-flight demand request or an existing
            // copy: drop the speculative block and let the base
            // protocol answer (paper Section 4.2).
            stats_.specDropped.inc();
            if (obs_) [[unlikely]]
                obs_->specInstant("spec drop", id_, msg.blk);
            return;
        }
        l.state = LineState::Shared;
        l.spec = true;
        l.referenced = false;
        l.inProcCache = false;
        l.trig = msg.trigger;
        l.specPush = eq_.curTick();
        if (obs_) [[unlikely]]
            obs_->specInstant("spec place", id_, msg.blk);
        return;
      }
      case MsgType::Nack: {
        // Our request bounced off a dead home. Back off
        // deterministically and re-issue; the re-map table will have
        // redirected the home by the time the retry fires.
        if (!faultsEnabled_ || !mshr_.valid || mshr_.blk != msg.blk)
            return; // late bounce of an already-satisfied request
        stats_.nacks.inc();
        ++retryAttempts_;
        fatal_if(retryAttempts_ > retryLimit_, "cache ", id_,
                 ": exhausted ", retryLimit_, " retries for block ",
                 mshr_.blk, "; home unreachable");
        stats_.retryDepth.sample(retryAttempts_);
        if (obs_) [[unlikely]]
            obs_->retryInstant("nack backoff", id_, mshr_.blk,
                               retryAttempts_);
        if (retryEvent_.scheduled())
            eq_.deschedule(retryEvent_);
        retryAfterNack_ = true;
        const unsigned shift =
            retryAttempts_ < 6 ? retryAttempts_ : 6;
        eq_.scheduleAfter(nackBackoffBase << shift, retryEvent_);
        return;
      }
      case MsgType::RehomeSync:
      case MsgType::CkptData:
      case MsgType::ShardSync:
        // Fault-layer traffic modelling only: the directory
        // reconstruction / predictor snapshot these messages stand
        // for is applied synchronously by the fault sweep. Their cost
        // is the link/NI occupancy they just paid.
        return;
      case MsgType::DataShared:
      case MsgType::DataExcl:
      case MsgType::UpgradeAck: {
        if (faultsEnabled_ && (!mshr_.valid || mshr_.blk != msg.blk)) {
            // A fill for a miss this node no longer has outstanding:
            // the node was killed (squashing the miss) and restarted
            // while the reply was in flight from a pre-crash request
            // epoch boundary, or a retry raced its own late reply.
            stats_.staleFills.inc();
            return;
        }
        panic_if(!mshr_.valid || mshr_.blk != msg.blk,
                 "unexpected fill ", msg.toString());
        if (mshr_.invalidated && msg.type == MsgType::DataShared) {
            // Consume the value for the blocked access but do not
            // keep the (already invalidated) copy.
            l.state = LineState::Invalid;
            l.spec = false;
            l.referenced = false;
            l.inProcCache = false;
        } else {
            l.state = msg.type == MsgType::DataShared
                          ? LineState::Shared
                          : LineState::Modified;
            l.spec = false;
            l.referenced = true;
            l.inProcCache = true;
        }
        if (faultsEnabled_) {
            // The miss is satisfied: disarm the stale timer so the
            // next miss can arm it afresh.
            if (retryEvent_.scheduled())
                eq_.deschedule(retryEvent_);
            retryAttempts_ = 0;
            retryAfterNack_ = false;
        }
        // Fill latency spans the whole transaction, retries included:
        // that is exactly the tail the lossy-link and fault axes
        // stretch and the mean hides.
        (mshr_.write ? stats_.writeMissLat : stats_.readMissLat)
            .sample(eq_.curTick() - mshr_.issued);
        if (obs_) [[unlikely]]
            obs_->missSpan(id_, mshr_.blk, mshr_.write, mshr_.issued);
        MemCompletion *done = mshr_.done;
        mshr_ = Mshr{};
        done->complete(msg.remoteWork);
        return;
      }
      default:
        panic("cache received unexpected ", msg.toString());
    }
}

} // namespace mspdsm
