#include "harness/experiment.hh"

#include "harness/workload_cache.hh"

namespace mspdsm
{

namespace
{

AppParams
toAppParams(const ExperimentConfig &ec)
{
    AppParams p;
    p.numProcs = ec.numProcs;
    p.scale = ec.scale;
    p.iterations = ec.iterations;
    p.seed = ec.seed;
    // Generate for exactly the machine being simulated (makeApp
    // would grow a too-small geometry itself, but syncing here keeps
    // the workload-cache key and the run's AddrMap in exact
    // agreement, and differently-sized machines never share a
    // compiled workload).
    p.proto.numNodes = ec.numProcs;
    return p;
}

DsmConfig
baseConfig(const ExperimentConfig &ec, Tick netJitter)
{
    DsmConfig cfg;
    cfg.proto.numNodes = ec.numProcs;
    cfg.proto.seed = ec.seed;
    cfg.proto.netJitter = netJitter;
    cfg.proto.topo = ec.topo;
    if (ec.tickLimit)
        cfg.tickLimit = ec.tickLimit;
    cfg.faults = ec.faults;
    cfg.obs.tracePath = ec.tracePath;
    cfg.obs.traceFrom = ec.traceFrom;
    cfg.obs.traceTo = ec.traceTo;
    cfg.obs.sampleInterval = ec.sampleInterval;
    return cfg;
}

} // namespace

Workload
buildWorkload(const std::string &app, const ExperimentConfig &ec)
{
    return makeApp(app, toAppParams(ec));
}

RunResult
runAccuracy(const std::string &app, std::size_t depth,
            const ExperimentConfig &ec)
{
    // One immutable compiled workload per (app, params), shared by
    // every run of a sweep -- fig8's three depths, table3's learning
    // curves -- instead of regenerating per configuration.
    const auto cw = WorkloadCache::get(app, toAppParams(ec));
    DsmConfig cfg = baseConfig(ec, cw->netJitter());
    cfg.pred = PredKind::None;
    cfg.spec = SpecMode::None;
    cfg.observers = {{PredKind::Cosmos, depth},
                     {PredKind::Msp, depth},
                     {PredKind::Vmsp, depth}};
    DsmSystem sys(cfg);
    // A tripped deadlock guard (RunStatus::TickLimit) is reported
    // structurally: the sweep layer surfaces it in the summary table
    // and JSON record instead of a stderr warning.
    return sys.run(*cw);
}

RunResult
runSpec(const std::string &app, SpecMode mode,
        const ExperimentConfig &ec)
{
    const auto cw = WorkloadCache::get(app, toAppParams(ec));
    DsmConfig cfg = baseConfig(ec, cw->netJitter());
    cfg.pred = PredKind::Vmsp;
    cfg.historyDepth = 1;
    cfg.spec = mode;
    DsmSystem sys(cfg);
    return sys.run(*cw);
}

} // namespace mspdsm
