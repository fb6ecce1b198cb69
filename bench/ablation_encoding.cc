/**
 * @file
 * Ablation A3: the Section 3.1 encoding break-even -- at what read
 * degree does VMSP's vector encoding become cheaper than MSP's
 * per-read entries? Sweeps the sharing degree on a synthetic
 * producer/consumer block and reports per-block table bytes for all
 * three predictors, plus the closed-form sequence-encoding sizes.
 */

#include <cstdio>
#include <iostream>

#include "base/table.hh"
#include "bench_common.hh"
#include "pred/seq_predictor.hh"
#include "pred/vmsp.hh"

using namespace mspdsm;

namespace
{

template <typename P>
void
drive(P &p, int rounds, int degree, bool with_acks)
{
    for (int i = 0; i < rounds; ++i) {
        p.observe(7, PredMsg{SymKind::Write, 0});
        if (with_acks) {
            for (int r = 0; r < degree; ++r)
                p.observe(7, PredMsg{SymKind::InvAck, NodeId(1 + r)});
        }
        for (int r = 0; r < degree; ++r)
            p.observe(7, PredMsg{SymKind::Read, NodeId(1 + r)});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Drives the predictors directly (no DsmSystem runs); the unified
    // CLI is accepted for suite uniformity; --json records an empty
    // sweep.
    const bench::BenchArgs args = bench::parseArgs(
        argc, argv, "ablation_encoding",
        "Ablation A3: storage vs read-sharing degree (Section 3.1)");

    constexpr unsigned procs = 16;
    std::printf("Ablation: storage vs read-sharing degree "
                "(stable producer/consumer, d=1, n=16)\n");
    std::printf("Section 3.1 break-even: VMSP's sequence encoding "
                "(2+n bits) beats MSP's\n(k*(2+log n) bits) from "
                "k >= %d readers.\n\n",
                (2 + 16 + (2 + 4) - 1) / (2 + 4));

    Table t({"degree", "Cosmos B/blk", "MSP B/blk", "VMSP B/blk",
             "MSP seq bits", "VMSP seq bits"});
    for (int degree : {1, 2, 3, 4, 6, 8, 12, 15}) {
        Cosmos c(1, procs);
        Msp m(1, procs);
        Vmsp v(1, procs);
        drive(c, 40, degree, true);
        drive(m, 40, degree, false);
        drive(v, 40, degree, false);
        t.addRow({Table::fmt(std::uint64_t(degree)),
                  Table::fmt(c.storage().avgBytesPerBlock, 1),
                  Table::fmt(m.storage().avgBytesPerBlock, 1),
                  Table::fmt(v.storage().avgBytesPerBlock, 1),
                  Table::fmt(std::uint64_t(degree * (2 + 4))),
                  Table::fmt(std::uint64_t(2 + procs))});
    }
    t.print(std::cout);
    SweepRunner sweep(args.jobs);
    return bench::finishSweep(sweep, args, "ablation_encoding");
}
