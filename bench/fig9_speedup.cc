/**
 * @file
 * Figure 9: execution time of the speculative coherent DSMs,
 * normalized to Base-DSM, broken into computation and remote request
 * waiting time.
 *
 * Paper reference points: FR-DSM reduces execution time by 8% on
 * average (17% at best); SWI-DSM by 12% on average (24% at best);
 * request waiting drops to 30-65% of base in four applications;
 * barnes barely moves (low communication ratio).
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
        argc, argv, "fig9_speedup",
        "Figure 9: normalized execution time of the speculative DSMs");

    SweepRunner sweep(args.jobs);
    for (const AppInfo &info : appSuite())
        for (SpecMode m : {SpecMode::None, SpecMode::FirstRead,
                           SpecMode::SwiFirstRead})
            sweep.addSpec(info.name, m, args.ec);
    const auto &recs = sweep.results();

    std::printf("Figure 9: normalized execution time (%%), comp + "
                "request wait\n");
    std::printf("(paper: FR avg -8%%, best -17%%; SWI avg -12%%, "
                "best -24%%)\n\n");

    Table t({"app", "Base comp", "Base req", "FR comp", "FR req",
             "FR total", "SWI comp", "SWI req", "SWI total",
             "ev/msg", "base p99", "SWI p99"});
    double fr_sum = 0, swi_sum = 0;
    std::size_t i = 0;
    for (const AppInfo &info : appSuite()) {
        const RunResult &base = recs[i++].result;
        const RunResult &fr = recs[i++].result;
        const RunResult &swi = recs[i++].result;

        const double bt = static_cast<double>(base.execTicks);
        auto norm = [bt](const RunResult &r) {
            return 100.0 * static_cast<double>(r.execTicks) / bt;
        };
        auto req = [bt](const RunResult &r) {
            return 100.0 * r.avgRequestWait / bt;
        };
        const double fr_total = norm(fr);
        const double swi_total = norm(swi);
        fr_sum += fr_total;
        swi_sum += swi_total;
        t.addRow({info.name, Table::fmt(100.0 - req(base), 1),
                  Table::fmt(req(base), 1),
                  Table::fmt(fr_total - req(fr), 1),
                  Table::fmt(req(fr), 1), Table::fmt(fr_total, 1),
                  Table::fmt(swi_total - req(swi), 1),
                  Table::fmt(req(swi), 1), Table::fmt(swi_total, 1),
                  // Event-kernel dispatches per message on the Base
                  // run: the transport-efficiency floor the batched
                  // NI drain tracks (sweep JSON: events_per_message).
                  Table::fmt(base.eventsPerMessage(), 2),
                  // Demand-miss latency tail (always-on histograms):
                  // speculation removes misses rather than shortening
                  // the survivors, so the p99 shows what is left.
                  Table::fmt(base.missLatP99, 0),
                  Table::fmt(swi.missLatP99, 0)});
    }
    t.addRow({"average", "", "100.0", "", "", Table::fmt(fr_sum / 7, 1),
              "", "", Table::fmt(swi_sum / 7, 1), "", "", ""});
    t.print(std::cout);
    return bench::finishSweep(sweep, args, "fig9_speedup");
}
