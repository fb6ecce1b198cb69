/**
 * @file
 * Figure 8: predictor accuracy with varying history depth (1, 2, 4).
 *
 * Paper reference points: depth 2 lifts appbt to 100% (alternating
 * edge-block consumers); deeper history separates unstructured's
 * alternating reduction sequences, reaching up to 99%; barnes also
 * improves because only stable patterns remain predicted.
 */

#include <cstdio>
#include <iostream>

#include "base/table.hh"
#include "bench_common.hh"

using namespace mspdsm;

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(
        argc, argv, "fig8_history",
        "Figure 8: predictor accuracy vs history depth (1, 2, 4)");

    SweepRunner sweep(args.jobs);
    for (const AppInfo &info : appSuite())
        for (std::size_t depth : {1u, 2u, 4u})
            sweep.addAccuracy(info.name, depth, args.ec);
    const auto &recs = sweep.results();

    std::printf("Figure 8: prediction accuracy (%%) vs history "
                "depth\n\n");
    Table t({"app", "Cosmos d1", "d2", "d4", "MSP d1", "d2", "d4",
             "VMSP d1", "d2", "d4"});
    std::size_t i = 0;
    for (const AppInfo &info : appSuite()) {
        double acc[3][3];
        for (int di = 0; di < 3; ++di, ++i) {
            const RunResult &r = recs[i].result;
            for (int k = 0; k < 3; ++k)
                acc[k][di] = r.observers[k].stats.accuracyPct();
        }
        t.addRow({info.name, Table::fmt(acc[0][0], 1),
                  Table::fmt(acc[0][1], 1), Table::fmt(acc[0][2], 1),
                  Table::fmt(acc[1][0], 1), Table::fmt(acc[1][1], 1),
                  Table::fmt(acc[1][2], 1), Table::fmt(acc[2][0], 1),
                  Table::fmt(acc[2][1], 1), Table::fmt(acc[2][2], 1)});
    }
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "fig8_history");
}
