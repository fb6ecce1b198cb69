/**
 * @file
 * ocean: near-neighbour stencil plus a lock-based global reduction
 * (SPLASH-2 origin).
 *
 * Paper characterization: stencil boundaries have a single consumer;
 * a lock-protected reduction sums a value over all processors at the
 * end of every iteration and the lock acquisition order changes every
 * iteration, pulling VMSP slightly below 100%. A large private
 * working set (interior blocks, plus read-only coefficients touched
 * once) keeps the prediction coverage and the per-block pattern-table
 * occupancy low (Table 3: ~86% predicted; Table 4: <1 entry/block).
 */

#include "workload/suite.hh"

#include <numeric>

#include "base/random.hh"
#include "workload/layout.hh"

namespace mspdsm
{

Workload
makeOcean(const AppParams &p)
{
    const unsigned n = p.numProcs;
    const unsigned iters = p.iterations ? p.iterations : 12;
    const unsigned boundary =
        std::max(4u, static_cast<unsigned>(12 * p.scale));
    const unsigned corner = std::max(2u, unsigned(4 * p.scale));
    const unsigned interior =
        std::max(8u, static_cast<unsigned>(40 * p.scale));
    const unsigned readonly =
        std::max(8u, static_cast<unsigned>(60 * p.scale));

    // The grids are one large shared allocation: boundary rows are
    // page-interleaved away from their producers (both the producer's
    // read-modify-write and the consumer's read pay remote latency).
    // Private interior and read-only coefficient blocks are
    // first-touch local.
    Layout layout(p.proto);
    std::vector<Region> bnd(n), cor(n), innr(n), ro(n);
    for (unsigned q = 0; q < n; ++q) {
        bnd[q] = layout.allocAt(NodeId((q + n / 2) % n), boundary);
        cor[q] =
            layout.allocAt(NodeId((q + n / 2 + 1) % n), corner);
        innr[q] = layout.allocAt(NodeId(q), interior);
        ro[q] = layout.allocAt(NodeId(q), readonly);
    }
    // One reduction cell, lock-protected in the original program; at
    // the protocol level a lock-guarded sum is a migratory block.
    const Region sum = layout.allocAt(NodeId(0), 1);

    Rng rng(p.seed);
    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(p.proto)));

    // Cold start: private data is touched once and never communicates
    // again; read-only data is only ever read.
    for (unsigned q = 0; q < n; ++q) {
        for (unsigned i = 0; i < interior; ++i) {
            tb[q].read(innr[q].addr(i));
            tb[q].write(innr[q].addr(i));
        }
        for (unsigned i = 0; i < readonly; ++i)
            tb[q].read(ro[q].addr(i));
    }

    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Consume neighbour boundaries: row blocks from the left
        // neighbour, corner blocks from both neighbours.
        for (unsigned q = 0; q < n; ++q) {
            const unsigned left = (q + n - 1) % n;
            const unsigned right = (q + 1) % n;
            if (it > 0) {
                for (unsigned i = 0; i < boundary; ++i) {
                    tb[q].read(bnd[left].addr(i));
                    tb[q].compute(6);
                }
                for (unsigned i = 0; i < corner; ++i) {
                    tb[q].read(cor[left].addr(i));
                    tb[q].compute(6);
                }
                tb[q].compute(260); // second corner reader lags
                for (unsigned i = 0; i < corner; ++i) {
                    tb[q].read(cor[right].addr(i));
                    tb[q].compute(6);
                }
            }
            tb[q].compute(300);
        }

        // Produce: two relaxation sweeps read-modify-write the
        // boundary. The second sweep's accesses are silent cache
        // hits in the base system, but its read is robbed when SWI
        // invalidated early -- ocean's producer "writes multiple
        // times to the block", which is why SWI fails here.
        for (unsigned sweep = 0; sweep < 2; ++sweep) {
            for (unsigned q = 0; q < n; ++q) {
                for (unsigned i = 0; i < boundary; ++i) {
                    tb[q].read(bnd[q].addr(i));
                    tb[q].compute(4);
                    tb[q].write(bnd[q].addr(i));
                    tb[q].compute(8);
                }
                for (unsigned i = 0; i < corner; ++i) {
                    tb[q].read(cor[q].addr(i));
                    tb[q].compute(4);
                    tb[q].write(cor[q].addr(i));
                    tb[q].compute(8);
                }
                tb[q].compute(5600); // interior sweep (cache hits)
            }
        }

        // Reduction: every processor adds to the sum under a lock;
        // the acquisition order is a fresh permutation per iteration.
        std::vector<unsigned> order(n);
        std::iota(order.begin(), order.end(), 0u);
        rng.shuffle(order);
        for (unsigned slot = 0; slot < n; ++slot) {
            const unsigned q = order[slot];
            tb[q].compute(1 + slot * 1300);
            tb[q].read(sum.addr(0));
            tb[q].compute(20);
            tb[q].write(sum.addr(0));
        }
    }
    for (unsigned q = 0; q < n; ++q)
        tb[q].barrier();

    Workload w;
    w.name = "ocean";
    w.netJitter = 30; // moderate queueing: corner acks can race
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace mspdsm
