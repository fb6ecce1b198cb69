/**
 * @file
 * Figure 11 (beyond the paper): speculative coherence across a node
 * failure. A fixed fault plan -- by default, kill node 3 at tick
 * 40000, re-home its directory shard to a backup, restart it at tick
 * 70000 -- is injected into Base-DSM and SWI-DSM runs of em3d across
 * interconnect topologies and both directory-shard recovery policies.
 * Every restart is cold: the victim's predictors relearn from scratch.
 *
 * Reported per configuration:
 *  - time-to-recover: from the kill to the victim's first
 *    post-restart instruction (retry backoff + barrier re-entry);
 *  - SWI speedup before / during / after the outage, from the
 *    machine-wide instruction throughput of each phase. The fault
 *    plan is identical across the Base and SWI runs of a cell, so
 *    phase boundaries line up exactly;
 *  - the recovery traffic itself, split by where it is paid. Both
 *    rebuild the lost shard from the survivors' caches; the sweep
 *    columns pay one RehomeSync per contributing survivor at
 *    failover, the --replicate-shards columns pay batched ShardSync
 *    messages incrementally during normal operation and nothing at
 *    failover -- plus the link queueing all of it adds.
 *
 * Expected shape: speculation keeps its win before and after the
 * outage.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "base/table.hh"
#include "bench_common.hh"
#include "topo/topology.hh"

using namespace mspdsm;

namespace
{

/** Machine-wide instruction throughput of one run phase. */
double
phaseRate(std::uint64_t ops0, std::uint64_t ops1, Tick t0, Tick t1)
{
    if (t1 <= t0)
        return 0.0;
    return static_cast<double>(ops1 - ops0) /
           static_cast<double>(t1 - t0);
}

/** SWI-over-Base throughput ratio, "n/a" when a phase is empty. */
std::string
speedupCell(double base, double swi)
{
    if (base <= 0.0 || swi <= 0.0)
        return "n/a";
    return Table::fmt(swi / base, 2) + "x";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseArgs(
        argc, argv, "fig11_recovery",
        "Figure 11 (beyond the paper): fault injection and recovery "
        "under speculative coherence");

    // The fault plan, identical across every cell so phases are
    // comparable: the --kill/--restart events as given, or else one
    // mid-run outage of node 3 (the last node on a smaller machine).
    // A one-node machine has no survivor to recover onto.
    if (args.ec.numProcs < 2) {
        std::fprintf(stderr, "fig11_recovery: needs --procs 2 or more "
                             "(one node fails, another adopts it)\n");
        return 2;
    }
    std::vector<FaultEvent> &plan = args.ec.faults.events;
    if (plan.empty()) {
        const NodeId victim =
            static_cast<NodeId>(std::min(3u, args.ec.numProcs - 1));
        plan = {{40000, victim, FaultKind::Kill},
                {70000, victim, FaultKind::Restart}};
    }
    // Interval time-series on by default here: fig11 is the bench
    // whose per-run records must visibly bracket the outage (the
    // throughput dip between kill and restart). --sample-interval
    // overrides; an eighth of the pre-kill phase gives several
    // samples on each side of both fault edges.
    if (!args.ec.sampleInterval) {
        Tick firstKill = maxTick;
        for (const FaultEvent &fe : plan)
            if (fe.kind == FaultKind::Kill)
                firstKill = std::min(firstKill, fe.tick);
        args.ec.sampleInterval = firstKill / 8;
    }

    // Topology axis: the paper's crossbar plus a link-contended
    // fabric, unless --topology narrows it.
    const std::vector<TopoKind> topos =
        args.ec.topo.kind != TopoKind::Crossbar
            ? std::vector<TopoKind>{args.ec.topo.kind}
            : std::vector<TopoKind>{TopoKind::Crossbar, TopoKind::Mesh2D};

    struct Cell
    {
        TopoKind kind;
        bool repl; //!< shard replication vs survivor sweep
        std::size_t base, swi; //!< submission indices
    };

    SweepRunner sweep(args.jobs);
    std::vector<Cell> cells;
    for (TopoKind kind : topos) {
        // Directory-shard recovery axis: where the cost of rebuilding
        // the dead home's shard from the survivors' caches is paid --
        // at failover (RehomeSync) or during normal operation
        // (--replicate-shards, ShardSync).
        for (const bool repl : {false, true}) {
            ExperimentConfig ec = args.ec;
            ec.topo.kind = kind;
            ec.faults.replicateShards = repl;
            const std::string tag = std::string(topoKindName(kind)) +
                                    (repl ? " repl" : " sweep");
            Cell c;
            c.kind = kind;
            c.repl = repl;
            c.base = sweep.add(
                tag + " base",
                [ec] { return runSpec("em3d", SpecMode::None, ec); },
                topoKindName(kind));
            c.swi = sweep.add(
                tag + " SWI",
                [ec] {
                    return runSpec("em3d", SpecMode::SwiFirstRead, ec);
                },
                topoKindName(kind));
            cells.push_back(c);
        }
    }
    sweep.results();

    std::printf("Figure 11 (beyond the paper): node failure and "
                "recovery under SWI-DSM (em3d)\n");
    std::printf("(plan:");
    for (const FaultEvent &fe : plan)
        std::printf(" %s %u@%llu",
                    fe.kind == FaultKind::Kill ? "kill" : "restart",
                    unsigned(fe.node),
                    static_cast<unsigned long long>(fe.tick));
    std::printf(", every restart cold;\n recover = ticks from the first "
                "kill to the last victim's first post-restart op;\n"
                " speedup = SWI/Base machine-wide throughput per "
                "phase)\n\n");

    Table t({"topology", "shards", "recover", "speedup before",
             "during", "after", "rehome", "shard syncs", "retries",
             "link queue", "base p99", "SWI p99"});
    for (const Cell &c : cells) {
        const RunResult &base = sweep.result(c.base);
        const RunResult &swi = sweep.result(c.swi);
        const FaultOutcome &bf = base.fault;
        const FaultOutcome &sf = swi.fault;

        const bool recovered = sf.recoveredTick > sf.killTick;
        auto rates = [](const RunResult &r) {
            const FaultOutcome &f = r.fault;
            return std::array<double, 3>{
                phaseRate(0, f.opsAtKill, 0, f.killTick),
                phaseRate(f.opsAtKill, f.opsAtRestart, f.killTick,
                          f.restartTick),
                phaseRate(f.opsAtRestart, f.opsAtEnd, f.restartTick,
                          r.execTicks)};
        };
        const auto br = rates(base);
        const auto sr = rates(swi);

        t.addRow({topoKindName(c.kind), c.repl ? "repl" : "sweep",
                  recovered
                      ? Table::fmt(sf.recoveredTick - sf.killTick)
                      : "n/a",
                  speedupCell(br[0], sr[0]), speedupCell(br[1], sr[1]),
                  speedupCell(br[2], sr[2]),
                  Table::fmt(sf.rehomeSyncs),
                  Table::fmt(sf.shardSyncs), Table::fmt(sf.retries),
                  Table::fmt(swi.linkQueueingCycles),
                  // Demand-miss latency tail (always-on histograms):
                  // the outage's retry backoffs and re-homed misses
                  // stretch it far beyond a fault-free run's p99.
                  Table::fmt(base.missLatP99, 0),
                  Table::fmt(swi.missLatP99, 0)});
        // Both runs of a cell share the plan; a drifting boundary
        // would mean the fault layer broke determinism.
        if (bf.killTick != sf.killTick ||
            bf.restartTick != sf.restartTick) {
            std::printf("WARNING: phase boundaries differ between "
                        "Base and SWI runs\n");
        }
    }
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "fig11_recovery");
}
