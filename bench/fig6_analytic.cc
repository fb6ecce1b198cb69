/**
 * @file
 * Figure 6: potential speedup of a speculative coherent DSM from the
 * Section 5 analytic model -- four panels sweeping prediction
 * accuracy (p), misspeculation penalty (n), speculated fraction (f)
 * and the remote-to-local latency ratio (rtl) against the
 * application's communication ratio (c).
 */

#include <cstdio>
#include <iostream>

#include "base/table.hh"
#include "bench_common.hh"
#include "model/analytic.hh"

using namespace mspdsm;

namespace
{

void
panel(const char *title, const char *param,
      const std::vector<std::pair<std::string, ModelParams>> &curves)
{
    std::printf("%s\n", title);
    std::vector<std::string> headers{std::string("c \\ ") + param};
    for (const auto &[label, mp] : curves)
        headers.push_back(label);
    Table t(headers);
    for (int i = 0; i <= 10; ++i) {
        const double c = i / 10.0;
        std::vector<std::string> row{Table::fmt(c, 1)};
        for (const auto &[label, mp] : curves) {
            ModelParams p = mp;
            p.c = c;
            row.push_back(Table::fmt(speedup(p), 2));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    std::printf("\n");
}

ModelParams
base()
{
    ModelParams mp;
    mp.n = 2.0;
    mp.f = 1.0;
    mp.rtl = 4.0;
    mp.p = 0.9;
    return mp;
}

} // namespace

int
main(int argc, char **argv)
{
    // Closed-form model, no simulation runs: the unified CLI is
    // accepted for suite uniformity; --json records an empty sweep.
    const bench::BenchArgs args = bench::parseArgs(
        argc, argv, "fig6_analytic",
        "Figure 6: analytic speedup model (Section 5), four panels");

    std::printf("Figure 6: analytic speedup of a speculative "
                "coherent DSM\n\n");

    {
        std::vector<std::pair<std::string, ModelParams>> curves;
        for (double p : {1.0, 0.9, 0.7, 0.5, 0.3, 0.1}) {
            ModelParams mp = base();
            mp.p = p;
            curves.emplace_back("p=" + Table::fmt(p, 1), mp);
        }
        panel("(a) accuracy sweep: n=2, f=1.0, rtl=4", "p", curves);
    }
    {
        std::vector<std::pair<std::string, ModelParams>> curves;
        for (double n : {1.5, 2.0, 4.0, 8.0}) {
            ModelParams mp = base();
            mp.n = n;
            curves.emplace_back("n=" + Table::fmt(n, 1), mp);
        }
        panel("(b) penalty sweep: p=0.9, f=1.0, rtl=4", "n", curves);
    }
    {
        std::vector<std::pair<std::string, ModelParams>> curves;
        for (double f : {1.0, 0.9, 0.7, 0.5, 0.3, 0.1}) {
            ModelParams mp = base();
            mp.f = f;
            curves.emplace_back("f=" + Table::fmt(f, 1), mp);
        }
        panel("(c) coverage sweep: p=0.9, n=2, rtl=4", "f", curves);
    }
    {
        std::vector<std::pair<std::string, ModelParams>> curves;
        ModelParams mp = base();
        mp.rtl = 8.0;
        curves.emplace_back("rtl=8 (NUMA-Q)", mp);
        mp.rtl = 4.0;
        curves.emplace_back("rtl=4 (Mercury)", mp);
        mp.rtl = 2.0;
        curves.emplace_back("rtl=2 (Origin)", mp);
        panel("(d) machine sweep: p=0.9, n=2, f=1.0", "rtl", curves);
    }
    SweepRunner sweep(args.jobs);
    return bench::finishSweep(sweep, args, "fig6_analytic");
}
