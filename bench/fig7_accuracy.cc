/**
 * @file
 * Figure 7: base predictor accuracy comparison (history depth 1).
 *
 * Paper reference points: Cosmos exceeds 90% in only two of seven
 * applications and drops to ~60% at worst; MSP lifts the average from
 * 81% to 86% by dropping acknowledgements; VMSP reaches 93% on
 * average, >87% in all but one application and >79% everywhere.
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
        argc, argv, "fig7_accuracy",
        "Figure 7: base predictor accuracy, history depth 1");

    SweepRunner sweep(args.jobs);
    for (const AppInfo &info : appSuite())
        sweep.addAccuracy(info.name, 1, args.ec);
    const auto &recs = sweep.results();

    std::printf("Figure 7: prediction accuracy (%%), history depth 1\n");
    std::printf("(paper: Cosmos avg 81, MSP avg 86, VMSP avg 93)\n\n");

    Table t({"app", "Cosmos", "MSP", "VMSP"});
    double sum[3] = {0, 0, 0};
    for (const SweepRecord &rec : recs) {
        std::vector<std::string> row{rec.app};
        for (int k = 0; k < 3; ++k) {
            const double acc =
                rec.result.observers[k].stats.accuracyPct();
            sum[k] += acc;
            row.push_back(Table::fmt(acc, 1));
        }
        t.addRow(row);
    }
    t.addRow({"average", Table::fmt(sum[0] / 7, 1),
              Table::fmt(sum[1] / 7, 1), Table::fmt(sum[2] / 7, 1)});
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "fig7_accuracy");
}
