/**
 * @file
 * Table 2: applications and input data sets -- the paper's inputs
 * side by side with this reproduction's scaled inputs, plus measured
 * per-application request volumes at the default scale.
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
        argc, argv, "table2_apps",
        "Table 2: applications, inputs, and request volumes");

    SweepRunner sweep(args.jobs);
    for (const AppInfo &info : appSuite())
        sweep.addSpec(info.name, SpecMode::None, args.ec);
    const auto &recs = sweep.results();

    std::printf("Table 2: applications and input data sets\n\n");
    Table t({"app", "paper input", "iters", "this repro", "iters",
             "reads K", "writes K", "msgs K"});
    std::size_t i = 0;
    for (const AppInfo &info : appSuite()) {
        const RunResult &r = recs[i++].result;
        t.addRow({info.name, info.paperInput,
                  Table::fmt(std::uint64_t(info.paperIters)),
                  info.scaledInput,
                  Table::fmt(std::uint64_t(
                      args.ec.iterations ? args.ec.iterations
                                         : info.defaultIters)),
                  Table::fmt(r.reads / 1000.0, 1),
                  Table::fmt(r.writes / 1000.0, 1),
                  Table::fmt(r.messages / 1000.0, 1)});
    }
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "table2_apps");
}
