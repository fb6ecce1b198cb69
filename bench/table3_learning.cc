/**
 * @file
 * Table 3: fraction of messages predicted (and predicted correctly),
 * history depth 1.
 *
 * Paper reference points: all applications except barnes and ocean
 * predict most messages (high pattern reuse); MSP predicts the same
 * fraction as Cosmos while VMSP's vectors take slightly longer to
 * learn, offset by its much higher accuracy.
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
        argc, argv, "table3_learning",
        "Table 3: fraction of messages predicted, history depth 1");

    SweepRunner sweep(args.jobs);
    for (const AppInfo &info : appSuite())
        sweep.addAccuracy(info.name, 1, args.ec);
    const auto &recs = sweep.results();

    std::printf("Table 3: messages predicted (and correctly "
                "predicted), %%, depth 1\n\n");
    Table t({"app", "Cosmos", "MSP", "VMSP"});
    for (const SweepRecord &rec : recs) {
        std::vector<std::string> row{rec.app};
        for (int k = 0; k < 3; ++k) {
            const PredStats &s = rec.result.observers[k].stats;
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.0f (%.0f)",
                          s.coveragePct(), s.correctOfAllPct());
            row.push_back(cell);
        }
        t.addRow(row);
    }
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "table3_learning");
}
