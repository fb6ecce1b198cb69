#include "micro_suites.hh"

#include <utility>
#include <vector>

#include "base/random.hh"
#include "dsm/system.hh"
#include "net/network.hh"
#include "pred/seq_predictor.hh"
#include "pred/vmsp.hh"
#include "sim/eventq.hh"
#include "workload/suite.hh"

namespace mspdsm::bench
{

namespace
{

/** Counts its firings into a shared total: the cheapest intrusive
 * event, so the eventq benches time the kernel alone. */
struct CountEvent final : public Event
{
    void process() override { ++*fired; }

    std::uint64_t *fired = nullptr;
};

/**
 * Event-kernel throughput: bulk-schedule a deterministic spread of
 * events and drain the queue. The tick distribution mirrors the
 * protocol's: heavy same-tick ties (concurrent acks), short
 * latencies, and a tail a few thousand ticks out (every latency in
 * ProtoConfig is under ~400 cycles).
 */
[[gnu::flatten]] std::uint64_t
eventqThroughput()
{
    constexpr int n = 20000;
    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<CountEvent> evs(n);
    for (int i = 0; i < n; ++i) {
        // Thirds: heavy ties, short spread, medium spread.
        const Tick when = (i % 3 == 0) ? Tick(i % 17)
                        : (i % 3 == 1) ? Tick((i * 7) % 512)
                                       : Tick((i * 131) % 4096);
        evs[i].fired = &fired;
        eq.schedule(when, evs[i]);
    }
    eq.run();
    return fired;
}

/**
 * Distant-event stress: ticks spread across a 65536-tick horizon,
 * far beyond any protocol latency. Times the kernel's far list --
 * 20000 entries, far longer than any protocol run keeps, moved into
 * the near wheel a gigatick at a time -- rather than the common path.
 */
[[gnu::flatten]] std::uint64_t
eventqFar()
{
    constexpr int n = 20000;
    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<CountEvent> evs(n);
    for (int i = 0; i < n; ++i) {
        evs[i].fired = &fired;
        eq.schedule(Tick((i * 131) % 65536), evs[i]);
    }
    eq.run();
    return fired;
}

/**
 * Steady-state kernel cost: one event rescheduling itself at +1 tick,
 * the pattern of a component timer. Exercises the advance path rather
 * than the bulk-drain path.
 */
[[gnu::flatten]] std::uint64_t
eventqSelfChain()
{
    constexpr std::uint64_t n = 20000;
    struct Chain final : public Event
    {
        explicit Chain(EventQueue &q) : eq(q) {}

        void
        process() override
        {
            if (++count < n)
                eq.scheduleAfter(1, *this);
        }

        EventQueue &eq;
        std::uint64_t count = 0;
    };
    EventQueue eq;
    Chain chain(eq);
    eq.schedule(0, chain);
    eq.run();
    return chain.count;
}

/** Shared small workload; generated once, outside the timed region. */
const Workload &
benchWorkload()
{
    static const Workload w = [] {
        AppParams p;
        p.scale = 0.25;
        p.iterations = 2;
        return makeEm3d(p);
    }();
    return w;
}

/** The same workload pre-compiled, as the harness workload cache
 * hands it to every run. */
const CompiledWorkload &
benchCompiledWorkload()
{
    static const CompiledWorkload cw(benchWorkload(),
                                     AddrMap(ProtoConfig{}));
    return cw;
}

/** End-to-end: simulated coherence messages per second on em3d,
 * including the per-run trace compilation (the cold path a one-off
 * run pays). */
std::uint64_t
simMessages()
{
    const Workload &w = benchWorkload();
    DsmConfig cfg;
    cfg.proto.netJitter = w.netJitter;
    DsmSystem sys(cfg);
    return sys.run(w.traces).messages;
}

/** End-to-end on the pre-compiled workload: the steady-state path a
 * sweep takes once the workload cache is warm. */
std::uint64_t
simMessagesCompiled()
{
    const Workload &w = benchWorkload();
    const CompiledWorkload &cw = benchCompiledWorkload();
    DsmConfig cfg;
    cfg.proto.netJitter = w.netJitter;
    DsmSystem sys(cfg);
    return sys.run(cw).messages;
}

/** Speculative run: same workload with VMSP + SWI/FR machinery on
 * (per-run compilation included, like sim/messages). */
std::uint64_t
simMessagesSpec()
{
    const Workload &w = benchWorkload();
    DsmConfig cfg;
    cfg.proto.netJitter = w.netJitter;
    cfg.pred = PredKind::Vmsp;
    cfg.spec = SpecMode::SwiFirstRead;
    DsmSystem sys(cfg);
    return sys.run(w.traces).messages;
}

/**
 * Multi-hop routing throughput: a 16-node torus (4x4, the densest
 * link structure we ship) under steady cross-traffic through raw
 * delivery sinks. Tracks the per-message route walk -- link
 * reservations, hop-composed flight, NI contention -- plus the
 * delivery event path; items are messages delivered.
 */
[[gnu::flatten]] std::uint64_t
netRoute()
{
    constexpr int n = 20000;
    ProtoConfig cfg;
    cfg.topo.kind = TopoKind::Torus2D;
    EventQueue eq;
    Network net(eq, cfg, Rng(11));
    std::uint64_t delivered = 0;
    const auto count = +[](void *ctx, const CohMsg &) {
        ++*static_cast<std::uint64_t *>(ctx);
    };
    for (NodeId i = 0; i < cfg.numNodes; ++i)
        net.attach(i, count, &delivered);
    for (int i = 0; i < n; ++i) {
        CohMsg m;
        // The destination stride advances every 16 messages (i >> 4
        // term), so the pattern walks all 240 (src, dst) pairs --
        // short and long routes, every shared link contended.
        m.type = (i & 3) ? MsgType::GetS : MsgType::DataShared;
        m.src = static_cast<NodeId>(i & 15);
        m.dst = static_cast<NodeId>((i * 7 + 3 + (i >> 4)) & 15);
        if (m.src == m.dst)
            m.dst = static_cast<NodeId>((m.dst + 1) & 15);
        net.send(m);
    }
    eq.run();
    return delivered;
}

/**
 * Dense same-destination cross-traffic: fifteen sources hammer one
 * hot ingress NI on the default crossbar, so the whole run is one
 * long busy period at that node. This was the worst case for the
 * retired two-stage path (every message paid an arrival event plus a
 * delivery event); the per-destination drain batches all the arrival
 * bookkeeping into the delivery dispatches it queued behind. Items
 * are messages delivered.
 */
[[gnu::flatten]] std::uint64_t
netIngressBatch()
{
    constexpr int n = 20000;
    ProtoConfig cfg;
    EventQueue eq;
    Network net(eq, cfg, Rng(23));
    std::uint64_t delivered = 0;
    const auto count = +[](void *ctx, const CohMsg &) {
        ++*static_cast<std::uint64_t *>(ctx);
    };
    for (NodeId i = 0; i < cfg.numNodes; ++i)
        net.attach(i, count, &delivered);
    for (int i = 0; i < n; ++i) {
        CohMsg m;
        // A 3:1 control/data mix, like the protocol's; every message
        // targets node 0, whose ingress NI serializes everything.
        m.type = (i & 3) ? MsgType::GetS : MsgType::DataShared;
        m.src = static_cast<NodeId>(1 + i % 15);
        m.dst = 0;
        net.send(m);
    }
    eq.run();
    return delivered;
}

/** Front-end throughput: source TraceOps compiled per second. */
std::uint64_t
workloadCompile()
{
    const Workload &w = benchWorkload();
    const AddrMap map((ProtoConfig{}));
    const CompiledWorkload cw(w, map);
    // Keep the result alive past the optimizer.
    asm volatile("" ::"r"(cw.totalOps()));
    return cw.sourceOps();
}

/** Pre-generated stable producer/consumer message stream. */
std::vector<std::pair<BlockId, PredMsg>>
makeStream(std::size_t blocks, int rounds)
{
    std::vector<std::pair<BlockId, PredMsg>> stream;
    for (int i = 0; i < rounds; ++i) {
        for (BlockId b = 0; b < blocks; ++b) {
            stream.push_back({b, PredMsg{SymKind::Write, 0}});
            stream.push_back({b, PredMsg{SymKind::Read, 1}});
            stream.push_back({b, PredMsg{SymKind::Read, 2}});
        }
    }
    return stream;
}

/**
 * The headline predictor bench: all three predictor kinds observing a
 * 4096-block stream at depth 1 -- per-block table lookup plus pattern
 * lookup/learn on every call, dominated by table access. Predictor
 * state persists across harness invocations so the measurement is the
 * steady-state observe path (the per-message operation a directory
 * performs), not table construction.
 */
[[gnu::flatten]] std::uint64_t
predObserveMix()
{
    static const auto stream = makeStream(4096, 4);
    static Cosmos c(1, 16);
    static Msp m(1, 16);
    static Vmsp v(1, 16);
    for (const auto &[blk, msg] : stream) {
        c.observe(blk, msg);
        m.observe(blk, msg);
        v.observe(blk, msg);
    }
    return static_cast<std::uint64_t>(stream.size()) * 3;
}

/** Cold-start variant: fresh predictors, allocation/warm-up path. */
[[gnu::flatten]] std::uint64_t
predObserveCold()
{
    static const auto stream = makeStream(4096, 1);
    Cosmos c(1, 16);
    Msp m(1, 16);
    Vmsp v(1, 16);
    for (const auto &[blk, msg] : stream) {
        c.observe(blk, msg);
        m.observe(blk, msg);
        v.observe(blk, msg);
    }
    return static_cast<std::uint64_t>(stream.size()) * 3;
}

/** Deep-history VMSP observe: longer keys, same table machinery. */
[[gnu::flatten]] std::uint64_t
predObserveDeep()
{
    static const auto stream = makeStream(64, 64);
    static Vmsp v(4, 16);
    for (const auto &[blk, msg] : stream)
        v.observe(blk, msg);
    return static_cast<std::uint64_t>(stream.size());
}

/** The speculation fast path: predictedReaders + predictionKey. */
[[gnu::flatten]] std::uint64_t
predSpecQuery()
{
    constexpr int n = 100000;
    Vmsp v(1, 16);
    for (int i = 0; i < 8; ++i) {
        v.observe(7, PredMsg{SymKind::Write, 0});
        v.observe(7, PredMsg{SymKind::Read, 1});
        v.observe(7, PredMsg{SymKind::Read, 2});
    }
    std::uint64_t live = 0;
    for (int i = 0; i < n; ++i) {
        if (v.predictedReaders(7))
            ++live;
        if (v.predictionKey(7))
            ++live;
    }
    return live;
}

} // namespace

std::vector<BenchResult>
runSimSuite(const BenchOptions &opts)
{
    std::vector<BenchResult> rs;
    rs.push_back(runBench("eventq/throughput", opts, eventqThroughput));
    rs.push_back(runBench("eventq/far", opts, eventqFar));
    rs.push_back(runBench("eventq/self_chain", opts, eventqSelfChain));
    rs.push_back(runBench("sim/messages", opts, simMessages));
    rs.push_back(
        runBench("sim/messages_compiled", opts, simMessagesCompiled));
    rs.push_back(runBench("sim/messages_spec", opts, simMessagesSpec));
    rs.push_back(runBench("net/route", opts, netRoute));
    rs.push_back(
        runBench("net/ingress_batch", opts, netIngressBatch));
    rs.push_back(runBench("workload/compile", opts, workloadCompile));
    return rs;
}

double
simEventsPerMessage()
{
    const Workload &w = benchWorkload();
    const CompiledWorkload &cw = benchCompiledWorkload();
    DsmConfig cfg;
    cfg.proto.netJitter = w.netJitter;
    DsmSystem sys(cfg);
    const RunResult r = sys.run(cw);
    return r.eventsPerMessage();
}

std::vector<BenchResult>
runPredictorSuite(const BenchOptions &opts)
{
    std::vector<BenchResult> rs;
    rs.push_back(runBench("pred/observe_mix", opts, predObserveMix));
    rs.push_back(runBench("pred/observe_cold", opts, predObserveCold));
    rs.push_back(runBench("pred/observe_deep", opts, predObserveDeep));
    rs.push_back(runBench("pred/spec_query", opts, predSpecQuery));
    return rs;
}

double
itemsPerSec(const std::vector<BenchResult> &rs, const std::string &name)
{
    for (const BenchResult &r : rs)
        if (r.name == name)
            return r.itemsPerSec;
    return 0.0;
}

} // namespace mspdsm::bench
