/**
 * @file
 * Figure 10 (beyond the paper): network sensitivity of speculative
 * coherence. The paper evaluates one network -- a constant-latency
 * switched fabric with NI-only contention (our crossbar) -- yet the
 * MSP's entire value proposition is hiding remote latency, so this
 * experiment sweeps the interconnect under it: SWI-DSM execution time
 * relative to Base-DSM across topology x node count x link latency on
 * em3d, the suite's most communication-bound application.
 *
 * Expected shape: the relative speedup *grows* as the network gets
 * slower (more hops, higher per-hop latency) because each correctly
 * anticipated remote fetch hides a longer round trip -- up to the
 * point where link contention saturates and speculative pushes start
 * queueing behind demand traffic.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/table.hh"
#include "bench_common.hh"
#include "topo/topology.hh"

using namespace mspdsm;

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(
        argc, argv, "fig10_network",
        "Figure 10 (beyond the paper): SWI-DSM speedup vs topology x "
        "node count x link latency");

    // Each axis sweeps its full range by default; passing the
    // corresponding flag narrows it to the requested value. The flag
    // defaults double as "not passed" sentinels, so the two requests
    // this cannot express are the defaults themselves: --topology
    // crossbar and --procs 16 still sweep their full axis.
    const std::vector<TopoKind> topos =
        args.ec.topo.kind != TopoKind::Crossbar
            ? std::vector<TopoKind>{args.ec.topo.kind}
            : std::vector<TopoKind>{TopoKind::Crossbar, TopoKind::Ring,
                                    TopoKind::Mesh2D, TopoKind::Torus2D};
    const std::vector<unsigned> procCounts =
        args.ec.numProcs != 16 ? std::vector<unsigned>{args.ec.numProcs}
                               : std::vector<unsigned>{8, 16, 32};
    // The parse checked fault nodes against --procs; every machine
    // swept must have them.
    bench::requireFaultNodesBelow(args, procCounts.front(),
                                  "fig10_network",
                                  "the smallest swept --procs is");
    // --link-latency narrows the latency axis likewise.
    const std::vector<Tick> linkLats =
        args.ec.topo.linkLatency
            ? std::vector<Tick>{args.ec.topo.linkLatency}
            : std::vector<Tick>{20, 80};

    struct Cell
    {
        TopoKind kind;
        unsigned procs;
        Tick linkLat;
        std::size_t base, swi; //!< submission indices
    };

    SweepRunner sweep(args.jobs);
    std::vector<Cell> cells;
    for (TopoKind kind : topos) {
        for (unsigned procs : procCounts) {
            for (Tick linkLat : linkLats) {
                // The crossbar's flight time is netLatency no matter
                // the link latency; sweep it once per node count.
                if (kind == TopoKind::Crossbar &&
                    linkLat != linkLats.front())
                    continue;
                ExperimentConfig ec = args.ec;
                ec.numProcs = procs;
                ec.topo.kind = kind;
                ec.topo.linkLatency = linkLat;
                const bool xbar = kind == TopoKind::Crossbar;
                const std::string tag =
                    std::string(topoKindName(kind)) +
                    " p=" + std::to_string(procs) +
                    " L=" + (xbar ? "-" : std::to_string(linkLat));
                Cell c;
                c.kind = kind;
                c.procs = procs;
                c.linkLat = linkLat;
                c.base = sweep.add(
                    tag + " base",
                    [ec] { return runSpec("em3d", SpecMode::None, ec); },
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

    std::printf("Figure 10 (beyond the paper): SWI-DSM vs Base-DSM "
                "across interconnects (em3d)\n");
    std::printf("(time %% = SWI execution time normalized to the same "
                "network's Base-DSM)\n\n");

    Table t({"topology", "procs", "link", "base ticks", "SWI ticks",
             "time %", "req wait %", "link queue", "ev/msg",
             "miss p99"});
    for (const Cell &c : cells) {
        const RunResult &base = sweep.result(c.base);
        const RunResult &swi = sweep.result(c.swi);
        const double bt = static_cast<double>(base.execTicks);
        const bool ok = base.completed() && swi.completed() && bt > 0;
        t.addRow({topoKindName(c.kind), Table::fmt(std::uint64_t{c.procs}),
                  c.kind == TopoKind::Crossbar ? "-"
                                               : Table::fmt(c.linkLat),
                  Table::fmt(base.execTicks), Table::fmt(swi.execTicks),
                  ok ? Table::fmt(100.0 *
                                      static_cast<double>(swi.execTicks) /
                                      bt,
                                  1)
                     : "n/a",
                  ok ? Table::fmt(100.0 * swi.avgRequestWait / bt, 1)
                     : "n/a",
                  // Link-level contention of the SWI run: the cycles
                  // messages spent queued behind busy links (always 0
                  // on the crossbar, whose contention is NI-only).
                  Table::fmt(swi.linkQueueingCycles),
                  // Event dispatches per message on the SWI run: how
                  // close the batched NI drain holds the transport to
                  // its one-event-per-delivery floor as the fabric
                  // slows and contention grows.
                  Table::fmt(swi.eventsPerMessage(), 2),
                  // Demand-miss latency tail of the SWI run (always-on
                  // histograms): stretches with hop count and link
                  // latency, and under --lossy-link with retransmit
                  // round trips.
                  Table::fmt(swi.missLatP99, 0)});
    }
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "fig10_network");
}
