/**
 * @file
 * em3d: static bipartite producer/consumer sharing (Split-C origin).
 *
 * Paper characterization (Section 7): "Em3d exhibits producer/consumer
 * sharing with a small read-sharing degree"; the producer writes each
 * boundary block exactly once per iteration and does not touch it
 * again until the next iteration, so SWI invalidates ~98% of the
 * writes and triggers ~95% of the reads. Consumers read in a stable
 * order (staggered rank sub-phases), but the write's concurrent
 * invalidations make the acknowledgements race, which is what drags
 * the general message predictor down while MSP reaches 99%.
 */

#include "workload/suite.hh"

#include "base/random.hh"
#include "workload/layout.hh"

namespace mspdsm
{

Workload
makeEm3d(const AppParams &p)
{
    const unsigned n = p.numProcs;
    const unsigned iters = p.iterations ? p.iterations : 20;
    const unsigned blocks_per_proc =
        std::max(4u, static_cast<unsigned>(24 * p.scale));

    Layout layout(p.proto);
    std::vector<Region> region(n);
    for (unsigned q = 0; q < n; ++q)
        region[q] = layout.allocAt(NodeId(q), blocks_per_proc);

    // Block (q, i) is consumed by procs q+1 .. q+deg (mod n) where
    // the degree alternates 2 and 3: the mean covered-read fraction
    // under First-Read triggering is then (1/2 + 2/3)/2 ~ 0.58,
    // matching the paper's em3d FR coverage.
    auto degree = [](unsigned i) { return 2u + (i & 1u); };

    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(p.proto)));
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Produce: each processor rewrites its boundary blocks
        // back-to-back (consecutive writes to the same home arm the
        // SWI early-write-invalidate table).
        for (unsigned q = 0; q < n; ++q) {
            for (unsigned i = 0; i < blocks_per_proc; ++i) {
                tb[q].write(region[q].addr(i));
                tb[q].compute(8);
            }
            tb[q].compute(150);
        }

        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Consume in rank sub-phases: rank-r consumers (procs that
        // are r+1 to the producer) read before rank-(r+1) consumers,
        // giving a stable per-block read order across iterations.
        for (unsigned rank = 0; rank < 3; ++rank) {
            for (unsigned q = 0; q < n; ++q) {
                // Proc q is the rank-r consumer of producer q-rank-1.
                const unsigned prod = (q + n - rank - 1) % n;
                for (unsigned i = 0; i < blocks_per_proc; ++i) {
                    if (degree(i) > rank) {
                        tb[q].read(region[prod].addr(i));
                        tb[q].compute(6);
                    }
                }
                tb[q].compute(500); // rank separation
            }
        }

        for (unsigned q = 0; q < n; ++q)
            tb[q].compute(52000); // local graph update per iteration
    }
    for (unsigned q = 0; q < n; ++q)
        tb[q].barrier();

    Workload w;
    w.name = "em3d";
    w.netJitter = 40; // concurrent invalidations race (Section 7.1)
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace mspdsm
