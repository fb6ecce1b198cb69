/**
 * @file
 * tomcatv: row-partitioned stencil (SPEC origin).
 *
 * Paper characterization: processors own sets of rows and share only
 * at set boundaries, one consumer per block; the producer reads a
 * block before writing it, so every block has two readers (producer
 * and consumer) and all three predictors reach 100% accuracy. In a
 * correction phase the producer writes half of its boundary blocks a
 * second time before the consumer reads, so SWI succeeds on only
 * about half of the writes.
 */

#include "workload/suite.hh"

#include "workload/layout.hh"

namespace mspdsm
{

Workload
makeTomcatv(const AppParams &p)
{
    const unsigned n = p.numProcs;
    const unsigned iters = p.iterations ? p.iterations : 20;
    const unsigned blocks_per_proc =
        std::max(4u, static_cast<unsigned>(16 * p.scale));

    // The matrices are one large shared allocation: page interleaving
    // homes a producer's row-set away from the producer, so both the
    // producer's read-before-write and the consumer's read are remote
    // (the configuration the paper's FR numbers imply).
    Layout layout(p.proto);
    std::vector<Region> region(n);
    for (unsigned q = 0; q < n; ++q)
        region[q] =
            layout.allocAt(NodeId((q + n / 2) % n), blocks_per_proc);

    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(p.proto)));
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Consumer role: read the left neighbour's boundary written
        // in the previous iteration.
        for (unsigned q = 0; q < n; ++q) {
            const unsigned left = (q + n - 1) % n;
            if (it > 0) {
                for (unsigned i = 0; i < blocks_per_proc; ++i) {
                    tb[q].read(region[left].addr(i));
                    tb[q].compute(6);
                }
            }
            tb[q].compute(400);
        }

        // Main phase: the producer reads then writes each of its own
        // boundary blocks ("the producer first reads then writes").
        for (unsigned q = 0; q < n; ++q) {
            for (unsigned i = 0; i < blocks_per_proc; ++i) {
                tb[q].read(region[q].addr(i));
                tb[q].compute(4);
                tb[q].write(region[q].addr(i));
                tb[q].compute(10);
            }
        }

        // Correction phase: rewrite the upper half of the boundary
        // before the consumer gets to read it (next iteration).
        for (unsigned q = 0; q < n; ++q) {
            tb[q].compute(200);
            for (unsigned i = blocks_per_proc / 2;
                 i < blocks_per_proc; ++i) {
                tb[q].write(region[q].addr(i));
                tb[q].compute(10);
            }
            tb[q].compute(36000); // interior sweep (all cache hits)
        }
    }
    for (unsigned q = 0; q < n; ++q)
        tb[q].barrier();

    Workload w;
    w.name = "tomcatv";
    w.netJitter = 8; // single consumer: nothing to re-order
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace mspdsm
