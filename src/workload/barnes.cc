/**
 * @file
 * barnes: Barnes-Hut N-body simulation (SPLASH-2 origin).
 *
 * Paper characterization: the octree is rebuilt every iteration, so
 * read-sharing patterns change rapidly -- many message sequences have
 * little or no reuse and the prediction fraction is the suite's
 * lowest. Readers of surviving cells arrive in a different order when
 * the traversal workload shifts, so VMSP gains over MSP; the read
 * sharing is asynchronous with minimal queueing, so acknowledgements
 * arrive in the same order every time and MSP does *not* improve on
 * Cosmos.
 *
 * Cell population used here:
 *  - stable cells (upper tree levels): fixed writer, fixed readers,
 *    stable arrival order -- predictable by everyone;
 *  - wobble cells: fixed writer and reader set, but the read order
 *    changes with the per-iteration workload -- only VMSP holds on;
 *  - churn cells (rebuilt subtrees): fresh writer and reader subset
 *    every iteration -- unpredictable for everyone and responsible
 *    for the low prediction fraction.
 */

#include "workload/suite.hh"

#include <algorithm>

#include "base/random.hh"
#include "workload/layout.hh"

namespace mspdsm
{

Workload
makeBarnes(const AppParams &p)
{
    const unsigned n = p.numProcs;
    const unsigned iters = p.iterations ? p.iterations : 10;
    const unsigned cells =
        std::max(16u, static_cast<unsigned>(200 * p.scale));
    const unsigned stable_cells = cells * 11 / 20;  // 55%
    const unsigned wobble_cells = cells * 3 / 20;   // 15%
    // remaining 30% churn

    Layout layout(p.proto);
    std::vector<Region> cell(cells);
    for (unsigned c = 0; c < cells; ++c)
        cell[c] = layout.allocAt(NodeId(c % n), 1);

    Rng rng(p.seed);

    const unsigned fixed_end = stable_cells + wobble_cells;
    std::vector<unsigned> fixed_writer(fixed_end);
    std::vector<std::vector<unsigned>> fixed_readers(fixed_end);
    for (unsigned c = 0; c < fixed_end; ++c) {
        fixed_writer[c] = static_cast<unsigned>(rng.uniform(0, n - 1));
        std::vector<bool> used(n, false);
        used[fixed_writer[c]] = true;
        // Three fixed readers besides the writer -- or every other
        // node on a machine too small for three, so the rejection
        // draw below always terminates.
        const unsigned deg = std::min(3u, n - 1);
        for (unsigned r = 0; r < deg; ++r) {
            unsigned q;
            do {
                q = static_cast<unsigned>(rng.uniform(0, n - 1));
            } while (used[q]);
            used[q] = true;
            fixed_readers[c].push_back(q);
        }
    }

    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(p.proto)));
    std::vector<PhaseSchedule> sched(n); // emptied by each emit()
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Tree build: every cell written by its owner.
        std::vector<unsigned> writer(cells);
        for (unsigned c = 0; c < cells; ++c) {
            writer[c] = c < fixed_end
                            ? fixed_writer[c]
                            : static_cast<unsigned>(
                                  rng.uniform(0, n - 1));
        }
        for (unsigned c = 0; c < cells; ++c) {
            const Tick t = rng.uniform(0, 4000);
            sched[writer[c]].at(t,
                                TraceOp::write(cell[c].addr(0)));
            // Tree construction touches a cell repeatedly as
            // children are inserted: a silent re-write in the
            // base system, but the multiple-writes behaviour
            // that defeats SWI (Section 7.4).
            sched[writer[c]].at(t + 600 + rng.uniform(0, 400),
                                TraceOp::write(cell[c].addr(0)));
        }
        for (unsigned q = 0; q < n; ++q)
            sched[q].emit(tb[q]);

        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Force traversal.
        for (unsigned c = 0; c < cells; ++c) {
            if (c < stable_cells) {
                // Stable arrival order: rank stagger dominates.
                unsigned rank = 0;
                for (unsigned q : fixed_readers[c]) {
                    sched[q].at(1 + rank * 1200 +
                                    rng.uniform(0, 200),
                                TraceOp::read(cell[c].addr(0)));
                    ++rank;
                }
            } else if (c < fixed_end) {
                // Same readers, workload-dependent order.
                for (unsigned q : fixed_readers[c]) {
                    sched[q].at(rng.uniform(0, 9000),
                                TraceOp::read(cell[c].addr(0)));
                }
            } else {
                // Rebuilt subtree: fresh reader subset.
                const unsigned deg =
                    1 + static_cast<unsigned>(rng.uniform(0, 3));
                for (unsigned r = 0; r < deg; ++r) {
                    unsigned q = static_cast<unsigned>(
                        rng.uniform(0, n - 1));
                    if (q == writer[c])
                        q = (q + 1) % n;
                    sched[q].at(rng.uniform(0, 9000),
                                TraceOp::read(cell[c].addr(0)));
                }
            }
        }
        for (unsigned q = 0; q < n; ++q)
            sched[q].emit(tb[q]);

        // Barnes is computation-bound: long per-body force work.
        for (unsigned q = 0; q < n; ++q)
            tb[q].compute(200000);
    }
    for (unsigned q = 0; q < n; ++q)
        tb[q].barrier();

    Workload w;
    w.name = "barnes";
    w.netJitter = 0; // "minimal queueing": acks arrive in order
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace mspdsm
