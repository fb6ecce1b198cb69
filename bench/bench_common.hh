/**
 * @file
 * The command line and sweep epilogue shared by the experiment
 * binaries.
 *
 * parseArgs() is the one command line every bench binary accepts:
 * --scale/--procs/--iters/--seed for the workload, the fault,
 * topology and trace flags, --jobs/--json for the sweep engine, plus
 * the legacy positional [scale] [iterations] form. finishSweep()
 * prints the per-run summary table and writes the mspdsm-sweep-v1
 * record. Wall clock is measured by perfbench/; the work counts are
 * pinned by tests/integration/test_golden.cc and CI's sweep-JSON
 * checks.
 */

#ifndef MSPDSM_BENCH_BENCH_COMMON_HH
#define MSPDSM_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "topo/topology.hh"

namespace mspdsm::bench
{

/** Largest --jobs accepted (a worker pool, not a request queue). */
inline constexpr unsigned maxJobs = 4096;

/** The uniform command line of every bench binary. */
struct BenchArgs
{
    ExperimentConfig ec;  //!< --scale / --iters / --procs / --seed
    unsigned jobs = 1;    //!< --jobs N (0 = hardware concurrency)
    std::string jsonPath; //!< --json FILE ("" = no JSON)
};

/** Print the shared usage text for @p tool. */
inline void
printUsage(std::ostream &os, const char *tool, const char *what)
{
    os << "usage: " << tool << " [options] [scale] [iterations]\n"
       << "  " << what << "\n\n"
       << "options:\n"
       << "  --scale X    workload size multiplier (default 1.0)\n"
       << "  --iters N    iteration override (0 = app default)\n"
       << "  --procs N    simulated node count, 1-" << maxNodes
       << " (default 16)\n"
       << "  --seed N     run-level seed (default 42)\n"
       << "  --topology T interconnect topology: " << topoKindNames()
       << "\n"
       << "               (default crossbar, the paper's "
          "constant-latency\n"
       << "               switched network)\n"
       << "  --link-latency N  per-hop wire latency on ring/mesh2d/\n"
       << "               torus2d links (0 = netLatency default)\n"
       << "  --tick-limit N  deadlock-guard tick budget per run;\n"
       << "               trips surface as TICK-LIMIT rows / JSON\n"
       << "               tick_limit fields, never a stderr warning\n"
       << "  --kill N@T   fail-stop node N at tick T (repeatable, for\n"
       << "               concurrent and cascading failures; default:\n"
       << "               no fault injection, and the run is\n"
       << "               bit-identical to one without the fault\n"
       << "               layer). The next live node adopts the\n"
       << "               victim's directory shard. A victim never\n"
       << "               restarted stalls the survivors at the next\n"
       << "               barrier, and the run reports partial results\n"
       << "  --restart N@T  restart node N at tick T (repeatable) with\n"
       << "               a cold cache and cold predictors; the victim\n"
       << "               re-adopts its original shard (fail-back)\n"
       << "  --replicate-shards  stream directory-shard deltas to the\n"
       << "               backup (batched ShardSync messages) during\n"
       << "               normal operation, so failover's rebuild\n"
       << "               from the survivors' caches sends no\n"
       << "               RehomeSync messages\n"
       << "  --lossy-link L,FROM,TO,NTH  drop every NTH message head\n"
       << "               crossing link L in tick window [FROM,TO)\n"
       << "               (repeatable; link topologies only; TO = 0\n"
       << "               means forever). Dropped transmissions are\n"
       << "               retransmitted after a fixed delay from a\n"
       << "               bounded budget\n"
       << "  --trace FILE[,FROM,TO]  write a Chrome trace-event JSON\n"
       << "               of every run to FILE (load in Perfetto /\n"
       << "               chrome://tracing), optionally limited to\n"
       << "               the tick window [FROM,TO] (TO = 0 means\n"
       << "               open-ended). Forces --jobs 1\n"
       << "  --sample-interval N  record an interval time-series\n"
       << "               sample (throughput, messages, predictor\n"
       << "               hits, outstanding misses) every N ticks\n"
       << "               into the JSON record (0 = off)\n"
       << "  --verbose    enable verbose() diagnostics on stderr\n"
       << "  --jobs N     parallel runs, 0-" << maxJobs
       << "; 0 = all hardware threads\n"
       << "               (default 1 = serial; results are\n"
       << "               bit-identical either way)\n"
       << "  --json FILE  write the mspdsm-sweep-v1 record to FILE\n"
       << "  --help       this text\n";
}

/**
 * Exit 2 with one stderr line if a --kill/--restart event in @p a
 * names a node a @p procs-node machine lacks; @p bound ends the line
 * ("--procs is").
 */
inline void
requireFaultNodesBelow(const BenchArgs &a, unsigned procs,
                       const char *tool, const char *bound)
{
    for (const FaultEvent &fe : a.ec.faults.events) {
        if (fe.node >= procs) {
            std::cerr << tool << ": "
                      << (fe.kind == FaultKind::Kill ? "--kill"
                                                     : "--restart")
                      << " names node " << fe.node << " but " << bound
                      << " " << procs << "\n";
            std::exit(2);
        }
    }
}

/**
 * Exit 2 with one stderr line unless @p plan is well formed: walked
 * in tick order, then plan order (the order its same-tick events
 * fire), every kill must hit a live node and every restart a dead
 * one.
 */
inline void
requireWellFormedPlan(const FaultPlan &plan, const char *tool)
{
    std::vector<FaultEvent> byTick = plan.events;
    std::stable_sort(byTick.begin(), byTick.end(),
                     [](const FaultEvent &x, const FaultEvent &y) {
                         return x.tick < y.tick;
                     });
    NodeSet down;
    for (const FaultEvent &fe : byTick) {
        const bool kill = fe.kind == FaultKind::Kill;
        if (kill == down.contains(fe.node)) {
            std::cerr << tool << ": the fault plan "
                      << (kill ? "kills" : "restarts") << " node "
                      << fe.node << " at tick " << fe.tick
                      << " while it is " << (kill ? "down" : "up")
                      << "\n";
            std::exit(2);
        }
        if (kill)
            down.add(fe.node);
        else
            down.remove(fe.node);
    }
}

/**
 * Parse the uniform bench command line; exits on --help (0) and on a
 * malformed or unknown argument or fault plan (2).
 */
inline BenchArgs
parseArgs(int argc, char **argv, const char *tool, const char *what)
{
    BenchArgs a;
    int positional = 0;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << tool << ": " << argv[i]
                      << " needs a value (try --help)\n";
            std::exit(2);
        }
        return argv[++i];
    };
    // --scale / --iters (and the legacy positionals): the whole
    // argument must parse, or the run would start on a garbage value.
    auto scaleOf = [&](const char *flag, const char *s) {
        char *end = nullptr;
        const double x = std::strtod(s, &end);
        if (end == s || *end != '\0' || !std::isfinite(x) || x <= 0) {
            std::cerr << tool << ": " << flag
                      << " must be a finite number > 0, got '" << s
                      << "'\n";
            std::exit(2);
        }
        return x;
    };
    // Every numeric flag takes a whole integer 0..max: a typo must
    // stop the tool here, not run on a garbage value or die mid-sweep.
    auto wholeOf = [](const char *s, unsigned long long max,
                      unsigned long long &n) {
        char *end = nullptr;
        errno = 0;
        n = std::strtoull(s, &end, 10);
        return std::isdigit(static_cast<unsigned char>(*s)) &&
               *end == '\0' && errno != ERANGE && n <= max;
    };
    auto u64Of = [&](const char *flag, const char *s,
                     unsigned long long max) {
        unsigned long long n = 0;
        if (!wholeOf(s, max, n)) {
            std::cerr << tool << ": " << flag << " must be an integer ";
            if (max == ~0ull)
                std::cerr << ">= 0";
            else
                std::cerr << "0-" << max;
            std::cerr << ", got '" << s << "'\n";
            std::exit(2);
        }
        return n;
    };
    // --jobs sizes a thread pool, so its max keeps a typo from
    // starting thousands of workers.
    auto uintOf = [&](const char *flag, const char *s, unsigned max) {
        return static_cast<unsigned>(u64Of(flag, s, max));
    };
    auto tickOf = [&](const char *flag, const char *s) {
        return static_cast<Tick>(u64Of(flag, s, maxTick));
    };
    // "N@T" for --kill / --restart: node N, tick T. Node ids are
    // range-checked against --procs after the loop.
    auto nodeAtTick = [&](const char *flag, const char *s,
                          NodeId &node, Tick &tick) {
        const char *at = std::strchr(s, '@');
        unsigned long long n = 0, t = 0;
        if (!at || !wholeOf(std::string(s, at).c_str(), maxNodes - 1, n) ||
            !wholeOf(at + 1, maxTick, t)) {
            std::cerr << tool << ": " << flag << " expects N@T (node "
                      << "0-" << maxNodes - 1 << ", integer tick), got '"
                      << s << "'\n";
            std::exit(2);
        }
        node = static_cast<NodeId>(n);
        tick = static_cast<Tick>(t);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            printUsage(std::cout, tool, what);
            std::exit(0);
        } else if (!std::strcmp(arg, "--scale")) {
            a.ec.scale = scaleOf(arg, value(i));
        } else if (!std::strcmp(arg, "--iters") ||
                   !std::strcmp(arg, "--iterations")) {
            a.ec.iterations = uintOf(arg, value(i), ~0u);
        } else if (!std::strcmp(arg, "--procs")) {
            const char *s = value(i);
            unsigned long long n = 0;
            if (!wholeOf(s, maxNodes, n) || n < 1) {
                std::cerr << tool << ": --procs must be 1-" << maxNodes
                          << ", got '" << s << "'\n";
                std::exit(2);
            }
            a.ec.numProcs = static_cast<unsigned>(n);
        } else if (!std::strcmp(arg, "--seed")) {
            a.ec.seed = u64Of(arg, value(i), ~0ull);
        } else if (!std::strcmp(arg, "--topology")) {
            const char *name = value(i);
            if (!mspdsm::parseTopoKind(name, a.ec.topo.kind)) {
                std::cerr << tool << ": unknown topology '" << name
                          << "' (expected one of " << topoKindNames()
                          << ")\n";
                std::exit(2);
            }
        } else if (!std::strcmp(arg, "--link-latency")) {
            a.ec.topo.linkLatency = tickOf(arg, value(i));
        } else if (!std::strcmp(arg, "--tick-limit")) {
            a.ec.tickLimit = tickOf(arg, value(i));
        } else if (!std::strcmp(arg, "--kill")) {
            FaultEvent fe{0, invalidNode, FaultKind::Kill};
            nodeAtTick("--kill", value(i), fe.node, fe.tick);
            a.ec.faults.events.push_back(fe);
        } else if (!std::strcmp(arg, "--restart")) {
            FaultEvent fe{0, invalidNode, FaultKind::Restart};
            nodeAtTick("--restart", value(i), fe.node, fe.tick);
            a.ec.faults.events.push_back(fe);
        } else if (!std::strcmp(arg, "--replicate-shards")) {
            a.ec.faults.replicateShards = true;
        } else if (!std::strcmp(arg, "--lossy-link")) {
            const char *s = value(i);
            // Four comma-separated whole numbers, NTH at least 1.
            unsigned long long f[4] = {};
            const char *p = s;
            bool ok = true;
            for (int k = 0; k < 4 && ok; ++k) {
                const char *end =
                    k < 3 ? std::strchr(p, ',') : p + std::strlen(p);
                const unsigned long long max =
                    k == 1 || k == 2 ? maxTick : ~0u;
                ok = end && wholeOf(std::string(p, end).c_str(), max, f[k]);
                p = end ? end + 1 : p;
            }
            if (!ok || f[3] == 0) {
                std::cerr << tool << ": --lossy-link expects "
                          << "L,FROM,TO,NTH (integers, NTH >= 1), got '"
                          << s << "'\n";
                std::exit(2);
            }
            LinkLossRule r;
            r.link = static_cast<std::uint32_t>(f[0]);
            r.from = f[1];
            r.to = f[2];
            r.everyNth = static_cast<unsigned>(f[3]);
            if (r.to == 0) // 0 = open-ended window
                r.to = maxTick;
            a.ec.faults.linkLoss.push_back(r);
        } else if (!std::strcmp(arg, "--trace")) {
            const char *s = value(i);
            const char *comma = std::strchr(s, ',');
            if (!comma) {
                a.ec.tracePath = s;
            } else {
                a.ec.tracePath.assign(s, comma - s);
                // FROM,TO: two whole numbers, like every numeric flag.
                const char *to = std::strchr(comma + 1, ',');
                unsigned long long from = 0, until = 0;
                if (!to ||
                    !wholeOf(std::string(comma + 1, to).c_str(), maxTick,
                             from) ||
                    !wholeOf(to + 1, maxTick, until)) {
                    std::cerr << tool << ": --trace expects "
                              << "FILE[,FROM,TO] (integer ticks), got '"
                              << s << "'\n";
                    std::exit(2);
                }
                a.ec.traceFrom = from;
                a.ec.traceTo = until ? until : maxTick; // 0 = open-ended
                if (a.ec.traceFrom > a.ec.traceTo) {
                    std::cerr << tool << ": --trace window [" << from
                              << ", " << until << "] is empty\n";
                    std::exit(2);
                }
            }
            if (a.ec.tracePath.empty()) {
                std::cerr << tool
                          << ": --trace needs a file name\n";
                std::exit(2);
            }
        } else if (!std::strcmp(arg, "--sample-interval")) {
            a.ec.sampleInterval = tickOf(arg, value(i));
        } else if (!std::strcmp(arg, "--verbose") ||
                   !std::strcmp(arg, "-v")) {
            setLogVerbosity(1);
        } else if (!std::strcmp(arg, "--jobs") ||
                   !std::strcmp(arg, "-j")) {
            a.jobs = uintOf(arg, value(i), maxJobs);
        } else if (!std::strcmp(arg, "--json")) {
            a.jsonPath = value(i);
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::cerr << tool << ": unknown option " << arg
                      << " (try --help)\n";
            std::exit(2);
        } else if (positional == 0) {
            a.ec.scale = scaleOf("scale", arg); // legacy [scale]
            ++positional;
        } else if (positional == 1) {
            a.ec.iterations = uintOf("iterations", arg, ~0u); // legacy
            ++positional;
        } else {
            std::cerr << tool << ": unexpected argument " << arg
                      << " (try --help)\n";
            std::exit(2);
        }
    }
    // Fault plans name nodes: each must exist, and a one-node machine
    // has no survivor to re-home onto.
    requireFaultNodesBelow(a, a.ec.numProcs, tool, "--procs is");
    if (a.ec.numProcs == 1 && !a.ec.faults.empty()) {
        std::cerr << tool << ": a fault plan needs --procs 2 or more\n";
        std::exit(2);
    }
    // Link loss drops crossings of shared links; the crossbar (also
    // the default that widens fig10/fig11's topology axis) has none.
    if (!a.ec.faults.linkLoss.empty() &&
        a.ec.topo.kind == TopoKind::Crossbar) {
        std::cerr << tool << ": --lossy-link needs --topology ring, "
                  << "mesh2d or torus2d (the crossbar has no links)\n";
        std::exit(2);
    }
    requireWellFormedPlan(a.ec.faults, tool);
    if (!a.ec.tracePath.empty() && a.jobs != 1) {
        // Every traced run in a sweep writes to the same file; the
        // last writer wins, which only makes sense serially.
        std::cerr << tool << ": --trace forces --jobs 1\n";
        a.jobs = 1;
    }
    return a;
}

/**
 * Shared sweep epilogue: per-run summary table (the structured view
 * of tick-limit guard trips) and, when requested, the JSON record.
 * @return the binary's exit code
 */
inline int
finishSweep(SweepRunner &sweep, const BenchArgs &args, const char *tool)
{
    if (!sweep.results().empty()) {
        // Deliberately no wall time on stdout: repeated runs of one
        // bench command must be byte-identical (timings go to the
        // JSON record).
        std::printf("\nSweep summary (%u job%s):\n", sweep.jobs(),
                    sweep.jobs() == 1 ? "" : "s");
        sweep.printSummary(std::cout);
    }
    if (!args.jsonPath.empty()) {
        if (!sweep.writeJsonFile(args.jsonPath, tool)) {
            std::cerr << tool << ": cannot write " << args.jsonPath
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << args.jsonPath << "\n";
    }
    return 0;
}

} // namespace mspdsm::bench

#endif // MSPDSM_BENCH_BENCH_COMMON_HH
