#include "dsm/processor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dsm/fault.hh"
#include "obs/obs.hh"

namespace mspdsm
{

bool
GlobalBarrier::removeWaiter(const Event &resume)
{
    auto it = std::find(waiting_.begin(), waiting_.end(), &resume);
    if (it == waiting_.end())
        return false;
    waiting_.erase(it);
    return true;
}

void
GlobalBarrier::arrive(Event &resume)
{
    waiting_.push_back(&resume);
    if (waiting_.size() < parties_)
        return;
    ++episodes_;
    // Scheduling in arrival order at the same tick preserves the
    // resume order (same-tick ties break by schedule order).
    for (Event *e : waiting_)
        eq_.scheduleAfter(cost_, *e);
    waiting_.clear();
}

void
Processor::step()
{
    panic_if(!started_, "processor ", id_, " started without a trace");
    const Tick now = eq_.curTick();
    if (resumeNotify_) [[unlikely]] {
        // First dispatch after a restart: this is the node resuming
        // useful work, the endpoint of the time-to-recover metric.
        resumeNotify_ = false;
        faults_->noteProgress(id_);
    }
    if (pc_ == trace_.count) {
        done_ = true;
        stats_.finishTick = now;
        if (obs_) [[unlikely]]
            obs_->procInstant("trace done", id_);
        return;
    }

    const CompiledOp op = trace_.ops[pc_];
    ++stats_.ops;
    switch (op.kind()) {
      case OpKind::Compute:
        ++pc_;
        eq_.scheduleAfter(op.payload(), stepEvent_);
        return;

      case OpKind::Read:
      case OpKind::Write: {
        if (op.delay() != 0 && !prefixDone_) {
            // The folded compute prefix runs as its own step, exactly
            // as a standalone Compute op would; the access issues on
            // the next dispatch.
            prefixDone_ = true;
            eq_.scheduleAfter(op.delay(), stepEvent_);
            return;
        }
        ++pc_;
        prefixDone_ = false;
        const bool write = op.kind() == OpKind::Write;
        access_.issued = now;
        if (const Tick lat = cache_.access(op.block(), write, access_)) {
            // Node-local hit: resume after its latency. A miss
            // re-enters step() from the fill instead.
            stats_.memWait += lat;
            eq_.scheduleAfter(lat, stepEvent_);
        }
        return;
      }

      case OpKind::Barrier:
        ++pc_;
        barrier_.arrive(stepEvent_);
        return;
    }
    panic("unknown compiled op kind");
}

void
Processor::accessDone(AccessRecord &r, bool remote)
{
    const Tick stall = eq_.curTick() - r.issued;
    stats_.memWait += stall;
    if (remote)
        stats_.requestWait += stall;
    step();
}

void
Processor::kill()
{
    if (!started_ || done_)
        return;
    if (barrier_.removeWaiter(stepEvent_)) {
        // Parked at a barrier: rewind the arrival so the restarted
        // processor re-arrives (the episode still needs all parties).
        --pc_;
        --stats_.ops;
        resumeAt_ = 0;
        return;
    }
    if (stepEvent_.scheduled()) {
        // Between ops (compute or prefix expiry, hit resume, or a
        // released barrier's resume): remember when it would have
        // continued; no op is lost. A pending prefix expiry keeps
        // prefixDone_, so the restart issues the access without a
        // second delay.
        resumeAt_ = stepEvent_.when();
        eq_.deschedule(stepEvent_);
        return;
    }
    // Blocked on a memory access; the cache kill squashes it and its
    // completion never fires. Rewind so the restarted processor
    // re-issues it against its cold cache. Its compute prefix has
    // already run (as a standalone Compute op before it would have),
    // so the restart re-issues only the access.
    --pc_;
    --stats_.ops;
    prefixDone_ = trace_.ops[pc_].delay() != 0;
    resumeAt_ = 0;
}

void
Processor::restart()
{
    if (!started_ || done_)
        return;
    panic_if(stepEvent_.scheduled(),
             "processor ", id_, " restarted while running");
    resumeNotify_ = faults_ != nullptr;
    eq_.schedule(std::max(eq_.curTick(), resumeAt_), stepEvent_);
    resumeAt_ = 0;
}

} // namespace mspdsm
