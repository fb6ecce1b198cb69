/**
 * @file
 * Figure 11 (beyond the paper): speculative coherence across a node
 * failure. A fixed fault plan -- kill one node mid-run, re-home its
 * directory shard to a backup, restart it later -- is injected into
 * Base-DSM and SWI-DSM runs of em3d across interconnect topologies
 * and predictor-recovery policies (cold restart vs warm restart from
 * periodically replicated checkpoints).
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
 *    failover -- plus checkpoint replication messages and the link
 *    queueing all of it adds.
 *
 * Expected shape: speculation keeps its win before and after the
 * outage, and warm restart closes most of the post-restart gap that
 * cold-started prediction state leaves -- that difference is the
 * replication-cost axis.
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
        "under speculative coherence",
        /*ownOutage=*/true);

    // The fault plan: one mid-run fail-stop with a later restart,
    // identical across every cell so phases are comparable. The
    // --fail-* flags override each default, and --kill/--restart add
    // further outages after it. The default victim is node 3, or the
    // last node on a smaller machine; a one-node machine has no
    // survivor to recover onto.
    if (args.ec.numProcs < 2) {
        std::fprintf(stderr, "fig11_recovery: needs --procs 2 or more "
                             "(one node fails, another adopts it)\n");
        return 2;
    }
    const NodeId victim =
        args.failNode != invalidNode
            ? args.failNode
            : static_cast<NodeId>(std::min(3u, args.ec.numProcs - 1));
    const Tick failTick = args.failTick ? args.failTick : 40000;
    const Tick recoverTick = args.recoverTick ? args.recoverTick : 70000;
    const Tick ckptInterval = args.ec.faults.ckptInterval
                                  ? args.ec.faults.ckptInterval
                                  : failTick / 4;
    bench::foldOutage(args, victim, failTick, recoverTick,
                      "fig11_recovery");
    // Interval time-series on by default here: fig11 is the bench
    // whose per-run records must visibly bracket the outage (the
    // throughput dip between kill and restart). --sample-interval
    // overrides; an eighth of the pre-kill phase gives several
    // samples on each side of both fault edges.
    if (!args.ec.sampleInterval)
        args.ec.sampleInterval = failTick / 8;

    // Topology axis: the paper's crossbar plus a link-contended
    // fabric, unless --topology narrows it.
    const std::vector<TopoKind> topos =
        args.ec.topo.kind != TopoKind::Crossbar
            ? std::vector<TopoKind>{args.ec.topo.kind}
            : std::vector<TopoKind>{TopoKind::Crossbar, TopoKind::Mesh2D};

    struct Cell
    {
        TopoKind kind;
        bool warm;
        bool repl; //!< shard replication vs survivor sweep
        std::size_t base, swi; //!< submission indices
    };

    SweepRunner sweep(args.jobs);
    std::vector<Cell> cells;
    for (TopoKind kind : topos) {
        for (const bool warm : {false, true}) {
            // Directory-shard recovery axis: where the cost of
            // rebuilding the dead home's shard from the survivors'
            // caches is paid -- at failover (RehomeSync) or during
            // normal operation (--replicate-shards, ShardSync).
            for (const bool repl : {false, true}) {
                ExperimentConfig ec = args.ec;
                ec.topo.kind = kind;
                ec.faults.ckptInterval = warm ? ckptInterval : 0;
                ec.faults.replicateShards = repl;
                const std::string tag =
                    std::string(topoKindName(kind)) +
                    (warm ? " warm" : " cold") +
                    (repl ? " repl" : " sweep");
                Cell c;
                c.kind = kind;
                c.warm = warm;
                c.repl = repl;
                c.base = sweep.add(
                    tag + " base",
                    [ec] {
                        return runSpec("em3d", SpecMode::None, ec);
                    },
                    topoKindName(kind));
                c.swi = sweep.add(
                    tag + " SWI",
                    [ec] {
                        return runSpec("em3d", SpecMode::SwiFirstRead,
                                       ec);
                    },
                    topoKindName(kind));
                cells.push_back(c);
            }
        }
    }
    sweep.results();

    std::printf("Figure 11 (beyond the paper): node failure and "
                "recovery under SWI-DSM (em3d)\n");
    std::printf("(kill node %u @%llu, restart @%llu; recover = ticks "
                "from kill to the victim's first post-restart op;\n"
                " speedup = SWI/Base machine-wide throughput per "
                "phase)\n\n",
                unsigned(victim),
                static_cast<unsigned long long>(failTick),
                static_cast<unsigned long long>(recoverTick));

    Table t({"topology", "restart", "shards", "recover",
             "speedup before", "during", "after", "rehome",
             "shard syncs", "ckpt msgs", "retries", "link queue",
             "base p99", "SWI p99"});
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

        t.addRow({topoKindName(c.kind), c.warm ? "warm" : "cold",
                  c.repl ? "repl" : "sweep",
                  recovered
                      ? Table::fmt(sf.recoveredTick - sf.killTick)
                      : "n/a",
                  speedupCell(br[0], sr[0]), speedupCell(br[1], sr[1]),
                  speedupCell(br[2], sr[2]),
                  Table::fmt(sf.rehomeSyncs),
                  Table::fmt(sf.shardSyncs),
                  Table::fmt(sf.ckptMessages), Table::fmt(sf.retries),
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
