/**
 * @file
 * appbt: Gaussian elimination over subcubes (NAS BT origin).
 *
 * Paper characterization: processors own subcubes and share boundary
 * values on subcube surfaces. The elimination proceeds along the cube
 * dimensions in alternating phases, so blocks on a subcube *edge* are
 * consumed by two different processors along the two dimensions; with
 * a history depth of one no predictor can separate the alternating
 * patterns (accuracy caps near 90%), while the invalidation
 * acknowledgement that precedes each read identifies the previous
 * consumer and lets Cosmos pick the next one -- the one application
 * where acks *help*. Data are passed in a strict producer/consumer
 * pipeline: the producer re-reads its boundary (read-modify-write)
 * after the consumer took it, which is what First-Read speculation
 * covers. The producer also revisits each block right after the
 * update sweep (pipeline bookkeeping), which defeats SWI.
 *
 * The boundary arrays are big shared allocations, page-interleaved
 * away from their producers, so both readers of a block pay remote
 * latency in the base system.
 */

#include "workload/suite.hh"

#include "workload/layout.hh"

namespace mspdsm
{

Workload
makeAppbt(const AppParams &p)
{
    const unsigned n = p.numProcs;
    const unsigned iters = p.iterations ? p.iterations : 12;
    // Two phases (dimensions) per iteration.
    const unsigned face =
        std::max(4u, static_cast<unsigned>(14 * p.scale));
    const unsigned edge =
        std::max(2u, static_cast<unsigned>(8 * p.scale));

    Layout layout(p.proto);
    std::vector<Region> faceR(n), edgeR(n);
    for (unsigned q = 0; q < n; ++q) {
        faceR[q] = layout.allocAt(NodeId((q + n / 2) % n), face);
        edgeR[q] =
            layout.allocAt(NodeId((q + n / 2 + 1) % n), edge);
    }

    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(p.proto)));
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned phase = 0; phase < 2; ++phase) {
            for (unsigned q = 0; q < n; ++q)
                tb[q].barrier();

            // Update sweep: read-modify-write the whole boundary
            // (the read is the producer's FR-covered access); the
            // pipeline revisits each block a couple of steps later
            // (silent while still owner, but robbed -- and flagged
            // premature -- when SWI invalidated early: the
            // reads-upon-writing behaviour that defeats SWI here).
            for (unsigned q = 0; q < n; ++q) {
                auto sweep = [&](const Region &r, unsigned count) {
                    for (unsigned i = 0; i < count; ++i) {
                        if (i >= 2) {
                            tb[q].compute(60);
                            tb[q].read(r.addr(i - 2));
                            tb[q].compute(2);
                        }
                        tb[q].read(r.addr(i));
                        tb[q].compute(4);
                        tb[q].write(r.addr(i));
                        tb[q].compute(6);
                    }
                    for (unsigned i = count - std::min(count, 2u);
                         i < count; ++i) {
                        tb[q].read(r.addr(i));
                        tb[q].compute(2);
                    }
                };
                sweep(faceR[q], face);
                sweep(edgeR[q], edge);
            }

            for (unsigned q = 0; q < n; ++q)
                tb[q].barrier();

            // Consume: the face consumer is fixed (q+1); the edge
            // consumer alternates with the elimination dimension
            // (q+1 in even phases, q+2 in odd ones).
            for (unsigned q = 0; q < n; ++q) {
                const unsigned fprod = (q + n - 1) % n;
                for (unsigned i = 0; i < face; ++i) {
                    tb[q].read(faceR[fprod].addr(i));
                    tb[q].compute(6);
                }
                const unsigned off = (phase % 2 == 0) ? 1 : 2;
                const unsigned eprod = (q + n - off) % n;
                for (unsigned i = 0; i < edge; ++i) {
                    tb[q].read(edgeR[eprod].addr(i));
                    tb[q].compute(6);
                }
                tb[q].compute(42000); // subcube interior elimination
            }
        }
    }
    for (unsigned q = 0; q < n; ++q)
        tb[q].barrier();

    Workload w;
    w.name = "appbt";
    w.netJitter = 8;
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace mspdsm
