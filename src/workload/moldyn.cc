/**
 * @file
 * moldyn: CHARMM-like molecular dynamics.
 *
 * Paper characterization: a producer/consumer phase with a small
 * read-sharing degree (force blocks, two consumers) in which the
 * producer re-reads its blocks shortly after writing them -- so SWI
 * misspeculates there and is suppressed -- plus a static migratory
 * phase whose patterns never change, where SWI succeeds and triggers
 * the migratory reads. Both MSP and VMSP reach 98-99%; Cosmos is
 * perturbed by the racing invalidation acks of the two consumers.
 */

#include "workload/suite.hh"

#include "workload/layout.hh"

namespace mspdsm
{

Workload
makeMoldyn(const AppParams &p)
{
    const unsigned n = p.numProcs;
    const unsigned iters = p.iterations ? p.iterations : 15;
    const unsigned force =
        std::max(4u, static_cast<unsigned>(10 * p.scale));
    const unsigned degree = 3; // consumers per force block
    // Migratory blocks come in per-home chunks: a visitor writes the
    // blocks of one chunk back-to-back, so its consecutive writes
    // reach the same home and arm the SWI early-write-invalidate
    // table there (the property a contiguous shared array has on a
    // page-interleaved DSM).
    const unsigned chunk =
        std::max(2u, static_cast<unsigned>(5 * p.scale));
    const unsigned hops = 4; // processors visited per migratory block

    Layout layout(p.proto);
    std::vector<Region> forceR(n);
    for (unsigned q = 0; q < n; ++q)
        forceR[q] = layout.allocAt(NodeId((q + n / 2) % n), force);
    std::vector<Region> mig(n);
    for (unsigned h = 0; h < n; ++h)
        mig[h] = layout.allocAt(NodeId(h), chunk);

    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(p.proto)));
    std::vector<PhaseSchedule> sched(n); // emptied by each emit()
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Force computation: write all force blocks back-to-back,
        // then re-read them shortly after ("the producer reads the
        // blocks shortly after writing to them") -- the SWI
        // misspeculation trigger.
        for (unsigned q = 0; q < n; ++q) {
            for (unsigned i = 0; i < force; ++i) {
                tb[q].write(forceR[q].addr(i));
                tb[q].compute(6);
            }
            tb[q].compute(40);
            for (unsigned i = 0; i < force; ++i) {
                tb[q].read(forceR[q].addr(i));
                tb[q].compute(4);
            }
        }

        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Consumers read each force block in stable rank order.
        for (unsigned rank = 0; rank < degree; ++rank) {
            for (unsigned q = 0; q < n; ++q) {
                const unsigned prod = (q + n - rank - 1) % n;
                for (unsigned i = 0; i < force; ++i) {
                    tb[q].read(forceR[prod].addr(i));
                    tb[q].compute(6);
                }
                tb[q].compute(700);
            }
        }

        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();

        // Migratory phase: every block of chunk h visits the same
        // fixed processor sequence h, h+3, h+6, ...; hand-offs are
        // spaced beyond the worst-case miss latency so the request
        // order is stable across iterations, and a visitor works
        // through the whole chunk at each slot (back-to-back writes
        // to one home).
        for (unsigned h = 0; h < n; ++h) {
            for (unsigned j = 0; j < hops; ++j) {
                const unsigned q = (h + j * 3) % n;
                for (unsigned k = 0; k < chunk; ++k) {
                    const Tick t = Tick(j) * 1600 + k * 120;
                    sched[q].at(t, TraceOp::read(mig[h].addr(k)));
                    sched[q].at(t + 30,
                                TraceOp::write(mig[h].addr(k)));
                }
            }
        }
        for (unsigned q = 0; q < n; ++q) {
            sched[q].emit(tb[q]);
            tb[q].compute(32000); // bonded-forces local work
        }
    }
    for (unsigned q = 0; q < n; ++q)
        tb[q].barrier();

    Workload w;
    w.name = "moldyn";
    w.netJitter = 40; // consumer acks race
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace mspdsm
