#include "obs/obs.hh"

#include "base/logging.hh"
#include "dsm/cache.hh"
#include "dsm/processor.hh"
#include "net/network.hh"
#include "pred/predictor.hh"
#include "proto/config.hh"
#include "workload/compiled_trace.hh"

namespace mspdsm
{

namespace
{

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

ObsManager::ObsManager(EventQueue &eq, Network &net,
                       const ProtoConfig &cfg, ObsConfig ocfg,
                       std::vector<CacheCtrl *> caches,
                       std::vector<Processor *> procs,
                       std::vector<PredictorBase *> preds)
    : eq_(eq), net_(net), cfg_(std::move(ocfg)),
      numNodes_(cfg.numNodes), caches_(std::move(caches)),
      procs_(std::move(procs)), preds_(std::move(preds))
{
    panic_if(cfg_.empty(), "ObsManager built from an empty config");
    fatal_if(cfg_.traceFrom > cfg_.traceTo, "trace window [",
             cfg_.traceFrom, ", ", cfg_.traceTo, "] is empty");

    if (!cfg_.tracePath.empty()) {
        out_ = std::fopen(cfg_.tracePath.c_str(), "w");
        fatal_if(!out_, "cannot open trace file '", cfg_.tracePath,
                 "' for writing");
        verbose("tracing to ", cfg_.tracePath, ", window [",
                cfg_.traceFrom, ", ", cfg_.traceTo, "]");
        pend_.resize(std::size_t{numNodes_} * numNodes_);
        // Header plus one thread-name metadata record per track, so
        // Perfetto labels the rows. Metadata records carry no ts and
        // are exempt from the tick-window filter.
        std::fputs("{\"traceEvents\":[", out_);
        std::fprintf(out_, "\n{\"name\":\"process_name\",\"ph\":\"M\","
                           "\"pid\":0,\"args\":{\"name\":\"mspdsm\"}}");
        first_ = false;
        for (unsigned n = 0; n < numNodes_; ++n) {
            std::fprintf(out_,
                         ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                         "\"pid\":0,\"tid\":%u,"
                         "\"args\":{\"name\":\"node %u\"}}",
                         n, n);
            std::fprintf(out_,
                         ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                         "\"pid\":0,\"tid\":%u,"
                         "\"args\":{\"name\":\"node %u dir\"}}",
                         dirTidBase + n, n);
        }
    }

    if (cfg_.sampleInterval > 0) {
        // Baseline point at tick 0, then one sample per interval. The
        // timer re-arms only while other work is pending, so the
        // queue can drain; the final firing may stretch the run's end
        // tick by at most one interval -- a deterministic, gated
        // artifact the sweep records alongside the series itself.
        takeSample();
        eq_.schedule(eq_.curTick() + cfg_.sampleInterval,
                     sampleEvent_);
    }
}

ObsManager::~ObsManager()
{
    finish();
}

void
ObsManager::finish()
{
    if (!out_)
        return;
    std::fputs("\n]}\n", out_);
    std::fclose(out_);
    out_ = nullptr;
}

void
ObsManager::emitPrefix()
{
    std::fputs(first_ ? "\n" : ",\n", out_);
    first_ = false;
}

void
ObsManager::msgSent(const CohMsg &msg)
{
    if (!out_)
        return;
    pend_[std::size_t{msg.src} * numNodes_ + msg.dst].push_back(
        eq_.curTick());
}

void
ObsManager::msgDelivered(const CohMsg &msg)
{
    if (!out_)
        return;
    auto &q = pend_[std::size_t{msg.src} * numNodes_ + msg.dst];
    if (q.empty())
        return; // foreign send path (raw test sinks); nothing to pair
    const Tick sent = q.front();
    q.pop_front();
    const Tick now = eq_.curTick();
    if (!inWindow(sent, now))
        return;
    const std::uint64_t id = nextFlowId_++;
    const char *name = msgTypeName(msg.type);
    // A RehomeSync carries blk 0, not a compiled block id: print it
    // as is.
    const BlockId blk = msg.type == MsgType::RehomeSync
                            ? msg.blk
                            : sourceBlock(msg.blk);
    emitPrefix();
    std::fprintf(out_,
                 "{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"s\","
                 "\"id\":%llu,\"ts\":%llu,\"pid\":0,\"tid\":%u,"
                 "\"args\":{\"blk\":%llu}}",
                 name, ull(id), ull(sent), unsigned(msg.src),
                 ull(blk));
    emitPrefix();
    std::fprintf(out_,
                 "{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"f\","
                 "\"bp\":\"e\",\"id\":%llu,\"ts\":%llu,\"pid\":0,"
                 "\"tid\":%u}",
                 name, ull(id), ull(now), unsigned(msg.dst));
}

BlockId
ObsManager::sourceBlock(BlockId blk) const
{
    const BlockId raw = workload_ ? workload_->rawBlock(blk) : blk;
    return raw == invalidBlock ? blk : raw;
}

void
ObsManager::missSpan(NodeId n, BlockId blk, bool write, Tick issue)
{
    const Tick fill = eq_.curTick();
    if (!out_ || !inWindow(issue, fill))
        return;
    const char *name = write ? "write miss" : "read miss";
    emitPrefix();
    std::fprintf(out_,
                 "{\"name\":\"%s\",\"cat\":\"miss\",\"ph\":\"B\","
                 "\"ts\":%llu,\"pid\":0,\"tid\":%u,"
                 "\"args\":{\"blk\":%llu}}",
                 name, ull(issue), unsigned(n), ull(sourceBlock(blk)));
    emitPrefix();
    std::fprintf(out_,
                 "{\"name\":\"%s\",\"cat\":\"miss\",\"ph\":\"E\","
                 "\"ts\":%llu,\"pid\":0,\"tid\":%u}",
                 name, ull(fill), unsigned(n));
}

void
ObsManager::instant(const char *name, const char *cat, unsigned tid,
                    BlockId blk, bool hasBlk)
{
    const Tick t = eq_.curTick();
    if (!inWindow(t, t))
        return;
    emitPrefix();
    if (hasBlk)
        std::fprintf(out_,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                     "\"s\":\"t\",\"ts\":%llu,\"pid\":0,\"tid\":%u,"
                     "\"args\":{\"blk\":%llu}}",
                     name, cat, ull(t), tid, ull(sourceBlock(blk)));
    else
        std::fprintf(out_,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                     "\"s\":\"t\",\"ts\":%llu,\"pid\":0,\"tid\":%u}",
                     name, cat, ull(t), tid);
}

void
ObsManager::specInstant(const char *what, NodeId n, BlockId blk)
{
    if (!out_)
        return;
    instant(what, "spec", n, blk, true);
}

void
ObsManager::retryInstant(const char *what, NodeId n, BlockId blk,
                         unsigned attempt)
{
    const Tick t = eq_.curTick();
    if (!out_ || !inWindow(t, t))
        return;
    emitPrefix();
    std::fprintf(out_,
                 "{\"name\":\"%s\",\"cat\":\"retry\",\"ph\":\"i\","
                 "\"s\":\"t\",\"ts\":%llu,\"pid\":0,\"tid\":%u,"
                 "\"args\":{\"blk\":%llu,\"attempt\":%u}}",
                 what, ull(t), unsigned(n), ull(sourceBlock(blk)),
                 attempt);
}

void
ObsManager::dirInstant(const char *what, NodeId home, BlockId blk)
{
    if (!out_)
        return;
    instant(what, "dir", dirTidBase + home, blk, true);
}

void
ObsManager::swiSpan(NodeId home, BlockId blk, Tick launch)
{
    const Tick complete = eq_.curTick();
    if (!out_ || !inWindow(launch, complete))
        return;
    emitPrefix();
    std::fprintf(out_,
                 "{\"name\":\"swi\",\"cat\":\"swi\",\"ph\":\"X\","
                 "\"ts\":%llu,\"dur\":%llu,\"pid\":0,\"tid\":%u,"
                 "\"args\":{\"blk\":%llu}}",
                 ull(launch), ull(complete - launch),
                 dirTidBase + unsigned(home), ull(sourceBlock(blk)));
}

void
ObsManager::faultInstant(const char *what, NodeId n)
{
    if (!out_)
        return;
    instant(what, "fault", n, 0, false);
}

void
ObsManager::procInstant(const char *what, NodeId n)
{
    if (!out_)
        return;
    instant(what, "proc", n, 0, false);
}

void
ObsManager::sampleFired()
{
    takeSample();
    // Re-arm only while other work is pending: the machine's own
    // events drive the run; the sampler must never keep an otherwise
    // drained queue alive.
    if (eq_.pending() > 0)
        eq_.schedule(eq_.curTick() + cfg_.sampleInterval,
                     sampleEvent_);
}

void
ObsManager::takeSample()
{
    IntervalSample s;
    s.tick = eq_.curTick();
    for (const Processor *p : procs_)
        s.ops += p->stats().ops;
    s.messages = net_.messagesSent();
    s.eventsDispatched = eq_.executed();
    for (const PredictorBase *p : preds_) {
        if (!p)
            continue;
        s.predLookups += p->stats().predicted.value();
        s.predHits += p->stats().correct.value();
    }
    for (const CacheCtrl *c : caches_)
        s.outstandingMisses += c->missOutstanding() ? 1 : 0;
    // Every loss-rule drop schedules exactly one retransmit; the gap
    // between the two lifetime counters is the drops still waiting
    // out their reinjection delay.
    s.retransmitsInFlight = net_.linkDrops() - net_.retransmits();
    series_.push_back(s);
}

} // namespace mspdsm
