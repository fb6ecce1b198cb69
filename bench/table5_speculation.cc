/**
 * @file
 * Table 5: frequency of requests, speculations, and misspeculations.
 *
 * Columns mirror the paper: Base-DSM read/write volumes, then the
 * percentage of reads served speculatively (sent) and verified
 * unreferenced (miss) for the FR and SWI triggers, and the
 * percentage of writes invalidated early (sent / premature).
 *
 * Paper reference points: em3d SWI invalidates 98% of writes and
 * triggers 95% of reads; appbt/barnes/ocean get no SWI benefit;
 * write-invalidate misses are everywhere minimal.
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
        argc, argv, "table5_speculation",
        "Table 5: requests, speculations and misspeculations");

    SweepRunner sweep(args.jobs);
    for (const AppInfo &info : appSuite())
        for (SpecMode m : {SpecMode::None, SpecMode::FirstRead,
                           SpecMode::SwiFirstRead})
            sweep.addSpec(info.name, m, args.ec);
    const auto &recs = sweep.results();

    std::printf("Table 5: requests, speculations and misspeculations\n"
                "(reads/writes in thousands from Base-DSM; "
                "percentages of that volume)\n\n");
    Table t({"app", "reads K", "writes K", "FR-DSM rd sent", "miss",
             "SWI-DSM FR rd", "miss", "SWI rd", "miss", "winv sent",
             "winv miss"});
    std::size_t i = 0;
    for (const AppInfo &info : appSuite()) {
        const RunResult &base = recs[i++].result;
        const RunResult &fr = recs[i++].result;
        const RunResult &swi = recs[i++].result;

        const double rk = static_cast<double>(base.reads);
        const double wk = static_cast<double>(base.writes);
        t.addRow({info.name, Table::fmt(rk / 1000.0, 1),
                  Table::fmt(wk / 1000.0, 1),
                  Table::fmtPct(pct(fr.specSentFr, fr.reads)),
                  Table::fmtPct(pct(fr.specMissFr, fr.reads)),
                  Table::fmtPct(pct(swi.specSentFr, swi.reads)),
                  Table::fmtPct(pct(swi.specMissFr, swi.reads)),
                  Table::fmtPct(pct(swi.specSentSwi, swi.reads)),
                  Table::fmtPct(pct(swi.specMissSwi, swi.reads)),
                  Table::fmtPct(pct(swi.swiSent, swi.writes)),
                  Table::fmtPct(pct(swi.swiPremature, swi.writes))});
    }
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "table5_speculation");
}
