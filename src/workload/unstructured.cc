/**
 * @file
 * unstructured: CFD over an unstructured mesh, cyclically partitioned.
 *
 * Paper characterization: a producer/consumer phase with *wide* read
 * sharing (on average twelve readers per write) whose read order
 * varies, ruining MSP (< 65%) while VMSP's vectors remove the
 * re-ordering (87% at depth 1); and a sum-reduction phase with
 * migratory sharing in which processors whose contribution is zero
 * skip every other visit, so the migratory hand-off alternates
 * between two interleaved participant lists -- unpredictable at depth
 * 1, captured at depth 4. Producers write exactly once, so SWI
 * invalidates ~90% of writes and, with FR, covers ~92% of reads.
 */

#include "workload/suite.hh"

#include "base/random.hh"
#include "workload/layout.hh"

namespace mspdsm
{

Workload
makeUnstructured(const AppParams &p)
{
    const unsigned n = p.numProcs;
    const unsigned iters = p.iterations ? p.iterations : 10;
    const unsigned pc_blocks =
        std::max(2u, static_cast<unsigned>(4 * p.scale));
    const unsigned readers = std::min(12u, n - 1);
    // Reduction cells in per-home chunks (contiguous array on a
    // page-interleaved DSM): a participant updates a chunk's cells
    // back-to-back, arming SWI at that home. Sized so the reduction
    // contributes about half of all reads (paper Section 7.4).
    const unsigned chunk =
        std::max(2u, static_cast<unsigned>(8 * p.scale));

    Layout layout(p.proto);
    std::vector<Region> pc(n);
    for (unsigned q = 0; q < n; ++q)
        pc[q] = layout.allocAt(NodeId(q), pc_blocks);
    std::vector<Region> red(n);
    for (unsigned h = 0; h < n; ++h)
        red[h] = layout.allocAt(NodeId(h), chunk);

    Rng rng(p.seed);
    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(p.proto)));
    std::vector<PhaseSchedule> sched(n); // emptied by each emit()

    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Produce: one write per block per iteration (SWI-friendly).
        for (unsigned q = 0; q < n; ++q) {
            for (unsigned i = 0; i < pc_blocks; ++i) {
                tb[q].write(pc[q].addr(i));
                tb[q].compute(8);
            }
            tb[q].compute(150);
        }

        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Wide read sharing: readers follow a loose traversal order
        // that the per-iteration workload perturbs, so neighbouring
        // requests frequently swap ("high read request re-ordering")
        // while the global order stays roughly front-to-back.
        for (unsigned q = 0; q < n; ++q) {
            for (unsigned i = 0; i < pc_blocks; ++i) {
                for (unsigned r = 1; r <= readers; ++r) {
                    const unsigned reader = (q + r) % n;
                    const Tick t = Tick(r) * 150 +
                                   rng.uniform(0, 700);
                    sched[reader].at(
                        t, TraceOp::read(pc[q].addr(i)));
                }
            }
        }
        for (unsigned q = 0; q < n; ++q)
            sched[q].emit(tb[q]);

        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Sum reduction: every cell of chunk h is visited by the
        // fixed participant list h, h+2, ..., except that two of the
        // six participants compute a zero contribution every other
        // iteration and skip their visit ("some processors ...
        // alternate participating"). The hand-offs around the
        // skippers flip between two sequences -- unpredictable at
        // depth 1, captured by a deeper history (Sections 7.1-7.2).
        for (unsigned h = 0; h < n; ++h) {
            unsigned slot = 0;
            for (unsigned j = 0; j < 6; ++j) {
                const unsigned q = (h + j * 2) % n;
                const bool skipper = j == 2 || j == 4;
                if (skipper && (it % 2) == 1)
                    continue; // zero contribution this time
                for (unsigned k = 0; k < chunk; ++k) {
                    const Tick t =
                        Tick(slot) * 1600 + k * 120;
                    sched[q].at(t,
                                TraceOp::read(red[h].addr(k)));
                    sched[q].at(t + 30,
                                TraceOp::write(red[h].addr(k)));
                }
                ++slot;
            }
        }
        for (unsigned q = 0; q < n; ++q)
            sched[q].emit(tb[q]);

        for (unsigned q = 0; q < n; ++q)
            tb[q].compute(40000); // per-face local flux computation
    }
    for (unsigned q = 0; q < n; ++q)
        tb[q].barrier();

    Workload w;
    w.name = "unstructured";
    w.netJitter = 40; // wide sharing: heavy queueing and races
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace mspdsm
