/**
 * @file
 * Speculative DSM walk-through: assemble a DsmSystem by hand, run a
 * producer/consumer workload under the three speculation modes, and
 * dump the full speculation accounting (what Table 5 of the paper
 * summarizes) -- SWI invalidations, premature detections, pushed
 * copies, verified uses and misses.
 */

#include <cstdio>

#include "dsm/system.hh"
#include "workload/layout.hh"

using namespace mspdsm;

namespace
{

/**
 * A little message-buffer workload: each producer fills its buffer
 * blocks once per round, two consumers read them, round after round
 * -- the pattern the paper's Section 4.1 motivates with parallel
 * database message buffers.
 */
Workload
makeMessageBuffers(const ProtoConfig &proto, unsigned rounds)
{
    const unsigned n = proto.numNodes;
    const unsigned blocks = 12;
    Layout layout(proto);
    std::vector<Region> buf(n);
    for (unsigned q = 0; q < n; ++q)
        buf[q] = layout.allocAt(NodeId(q), blocks);

    std::vector<TraceBuilder> tb(n, TraceBuilder(AddrMap(proto)));
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();
        for (unsigned q = 0; q < n; ++q) {
            for (unsigned i = 0; i < blocks; ++i) {
                tb[q].write(buf[q].addr(i));
                tb[q].compute(10);
            }
        }
        for (unsigned q = 0; q < n; ++q)
            tb[q].barrier();
        for (unsigned rank = 0; rank < 2; ++rank) {
            for (unsigned q = 0; q < n; ++q) {
                const unsigned prod = (q + n - rank - 1) % n;
                for (unsigned i = 0; i < blocks; ++i) {
                    tb[q].read(buf[prod].addr(i));
                    tb[q].compute(8);
                }
                tb[q].compute(600);
            }
        }
    }
    Workload w;
    for (unsigned q = 0; q < n; ++q)
        tb[q].appendTo(w);
    return w;
}

} // namespace

int
main()
{
    Tick base_ticks = 0;
    for (SpecMode mode : {SpecMode::None, SpecMode::FirstRead,
                          SpecMode::SwiFirstRead}) {
        DsmConfig cfg;
        cfg.pred = PredKind::Vmsp;
        cfg.historyDepth = 1;
        cfg.spec = mode;
        cfg.proto.netJitter = 24;

        DsmSystem sys(cfg);
        const RunResult r = sys.run(makeMessageBuffers(cfg.proto, 30));
        if (mode == SpecMode::None)
            base_ticks = r.execTicks;

        std::printf("%s\n", specModeName(mode));
        std::printf("  execution time      %10llu cycles (%5.1f%% of "
                    "base)\n",
                    static_cast<unsigned long long>(r.execTicks),
                    100.0 * static_cast<double>(r.execTicks) /
                        static_cast<double>(base_ticks));
        std::printf("  remote wait / proc  %10.0f cycles\n",
                    r.avgRequestWait);
        std::printf("  demand reads        %10llu   writes %llu\n",
                    static_cast<unsigned long long>(r.reads),
                    static_cast<unsigned long long>(r.writes));
        std::printf("  SWI: sent %llu, premature %llu, suppressed "
                    "%llu\n",
                    static_cast<unsigned long long>(r.swiSent),
                    static_cast<unsigned long long>(r.swiPremature),
                    static_cast<unsigned long long>(r.swiSuppressed));
        std::printf("  pushes: FR %llu (miss %llu), SWI %llu (miss "
                    "%llu), dropped %llu\n",
                    static_cast<unsigned long long>(r.specSentFr),
                    static_cast<unsigned long long>(r.specMissFr),
                    static_cast<unsigned long long>(r.specSentSwi),
                    static_cast<unsigned long long>(r.specMissSwi),
                    static_cast<unsigned long long>(r.specDropped));
        std::printf("  reads served by speculation: FR %llu, SWI "
                    "%llu\n\n",
                    static_cast<unsigned long long>(r.specServedFr),
                    static_cast<unsigned long long>(r.specServedSwi));
    }
    return 0;
}
