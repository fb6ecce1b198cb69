/**
 * @file
 * Custom sharing patterns: shows how to script your own workload with
 * TraceBuilder / PhaseSchedule and measure how predictable it is at
 * different history depths -- the experiment you would run before
 * sizing an MSP for a new application class.
 */

#include <cstdio>
#include <vector>

#include "dsm/system.hh"
#include "workload/layout.hh"

using namespace mspdsm;

namespace
{

/**
 * A tree-barrier-like pattern: pairs exchange, then quads, then
 * halves -- each block's reader changes with the round structure,
 * which a depth-1 predictor cannot track but a deeper one can.
 */
Workload
makeTreeExchange(const ProtoConfig &proto, unsigned rounds)
{
    const unsigned n = proto.numNodes;
    Layout layout(proto);
    std::vector<Region> cell(n);
    for (unsigned q = 0; q < n; ++q)
        cell[q] = layout.allocAt(NodeId(q), 4);

    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(proto)));
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned level = 1; level < 8; level <<= 1) {
            for (unsigned q = 0; q < n; ++q)
                tb[q].barrier();
            for (unsigned q = 0; q < n; ++q) {
                for (unsigned i = 0; i < 4; ++i) {
                    tb[q].write(cell[q].addr(i));
                    tb[q].compute(8);
                }
            }
            for (unsigned q = 0; q < n; ++q)
                tb[q].barrier();
            for (unsigned q = 0; q < n; ++q) {
                const unsigned partner = q ^ level;
                if (partner < n) {
                    for (unsigned i = 0; i < 4; ++i) {
                        tb[q].read(cell[partner].addr(i));
                        tb[q].compute(8);
                    }
                }
                tb[q].compute(300);
            }
        }
    }
    Workload w;
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace

int
main()
{
    std::printf("Tree-exchange pattern: reader = writer XOR level, "
                "level cycling 1,2,4.\n");
    std::printf("%-8s  %-8s  %-10s  %-10s\n", "depth", "pred",
                "accuracy", "coverage");
    for (std::size_t depth : {1u, 2u, 4u}) {
        DsmConfig cfg;
        cfg.observers = {{PredKind::Cosmos, depth},
                         {PredKind::Msp, depth},
                         {PredKind::Vmsp, depth}};
        DsmSystem sys(cfg);
        const RunResult r = sys.run(makeTreeExchange(cfg.proto, 12));
        for (const ObserverResult &o : r.observers) {
            std::printf("%-8zu  %-8s  %9.1f%%  %9.1f%%\n", depth,
                        o.name.c_str(), o.stats.accuracyPct(),
                        o.stats.coveragePct());
        }
    }
    std::printf("\nA depth-1 predictor cannot separate the three "
                "alternating readers;\ndepth >= 4 sees a full level "
                "cycle and locks on (cf. paper Section 7.2).\n");
    return 0;
}
