/**
 * @file
 * Table 4: predictor storage overhead -- pattern-table entries per
 * allocated block at depths 1 and 4, and bytes per block at depth 1.
 *
 * Paper reference points: on average Cosmos needs ~5 entries per
 * block at depth 1, MSP ~3, VMSP ~2; MSP halves Cosmos's byte
 * overhead; Cosmos's depth-4 tables blow up under re-ordering
 * (barnes 42, unstructured 168) while VMSP stays compact.
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
        argc, argv, "table4_storage",
        "Table 4: predictor storage overhead at depths 1 and 4");

    SweepRunner sweep(args.jobs);
    for (const AppInfo &info : appSuite()) {
        sweep.addAccuracy(info.name, 1, args.ec);
        sweep.addAccuracy(info.name, 4, args.ec);
    }
    const auto &recs = sweep.results();

    std::printf("Table 4: storage overhead (pte = avg pattern-table "
                "entries/block;\novh = bytes/block at d=1)\n\n");
    Table t({"app", "Cos pte d1", "pte d4", "ovh", "MSP pte d1",
             "pte d4", "ovh", "VMSP pte d1", "pte d4", "ovh"});
    std::size_t i = 0;
    for (const AppInfo &info : appSuite()) {
        const RunResult &d1 = recs[i++].result;
        const RunResult &d4 = recs[i++].result;
        std::vector<std::string> row{info.name};
        for (int k = 0; k < 3; ++k) {
            row.push_back(Table::fmt(d1.observers[k].storage.avgPte, 1));
            row.push_back(Table::fmt(d4.observers[k].storage.avgPte, 1));
            row.push_back(Table::fmt(
                d1.observers[k].storage.avgBytesPerBlock, 1));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "table4_storage");
}
