/**
 * @file
 * Table 1: system configuration parameters of the simulated machine,
 * plus a measured validation of the headline latencies (local access,
 * round-trip miss, remote-to-local ratio).
 */

#include <cstdio>
#include <iostream>

#include "base/table.hh"
#include "bench_common.hh"
#include "dsm/system.hh"
#include "workload/layout.hh"

using namespace mspdsm;

namespace
{

RunResult
measure(const DsmConfig &cfg, NodeId who, Addr addr)
{
    DsmSystem sys(cfg);
    std::vector<Trace> ts(cfg.proto.numNodes);
    ts[who] = {TraceOp::read(addr)};
    return sys.run(ts);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(
        argc, argv, "table1_config",
        "Table 1: simulated machine parameters + latency validation");

    DsmConfig cfg;
    cfg.proto.netJitter = 0;
    const ProtoConfig &p = cfg.proto;

    std::printf("Table 1: system configuration parameters\n\n");
    Table t({"parameter", "value"});
    t.addRow({"Number of nodes", Table::fmt(std::uint64_t(p.numNodes))});
    t.addRow({"Processor speed (modelled)", "600 MHz (1 cycle units)"});
    t.addRow({"Coherence block size",
              Table::fmt(std::uint64_t(p.blockSize)) + " bytes"});
    t.addRow({"Page size (home interleaving)",
              Table::fmt(std::uint64_t(p.pageSize)) + " bytes"});
    t.addRow({"Local memory / remote cache access",
              Table::fmt(std::uint64_t(p.memAccess)) + " cycles"});
    t.addRow({"Network latency (one way)",
              Table::fmt(std::uint64_t(p.netLatency)) + " cycles"});
    t.addRow({"NI occupancy (control / data)",
              Table::fmt(std::uint64_t(p.niControl)) + " / " +
                  Table::fmt(std::uint64_t(p.niData)) + " cycles"});
    t.addRow({"Directory lookup",
              Table::fmt(std::uint64_t(p.dirLookup)) + " cycles"});
    t.print(std::cout);

    // Validate against the paper's headline numbers. The two probe
    // runs ride the sweep engine like every other experiment so the
    // binary shares the --jobs/--json interface.
    SweepRunner sweep(args.jobs);
    // Deliberately pinned to the default crossbar regardless of
    // --topology: these probes validate the paper's Table 1
    // calibration (104/418 cycles), which is defined on that network.
    sweep.add("local access", [cfg] {
        return measure(cfg, 1, 1 * cfg.proto.pageSize);
    }, "crossbar");
    sweep.add("round-trip miss", [cfg] {
        return measure(cfg, 1, 0 * cfg.proto.pageSize);
    }, "crossbar");
    const Tick local = sweep.result(0).execTicks;
    const Tick remote = sweep.result(1).execTicks;
    std::printf("\nmeasured local access        %6llu cycles "
                "(paper: 104)\n",
                static_cast<unsigned long long>(local));
    std::printf("measured round-trip miss     %6llu cycles "
                "(paper: 418)\n",
                static_cast<unsigned long long>(remote));
    std::printf("measured remote-to-local rtl %6.2f        "
                "(paper: ~4)\n",
                static_cast<double>(remote) /
                    static_cast<double>(local));
    return bench::finishSweep(sweep, args, "table1_config");
}
