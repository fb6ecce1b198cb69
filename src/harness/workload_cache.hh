/**
 * @file
 * Cross-run compiled-workload cache.
 *
 * Every paper figure/table sweeps one application across many
 * configurations (history depths, speculation modes), and before this
 * cache each run regenerated and recompiled the same traces from
 * scratch -- fig8_history built the em3d workload three times, once
 * per depth, and the whole suite repeated that per app. Workload
 * generation is pure (a function of the app name, AppParams, and the
 * block/page geometry) and a CompiledWorkload is immutable, so one
 * compiled instance can back any number of concurrent runs.
 *
 * The cache is process-wide and thread-safe: SweepRunner workers
 * racing for the same key wait on a shared future while the first
 * requester generates (generation happens outside the table lock, so
 * distinct apps still generate in parallel). Entries are never
 * evicted -- a sweep touches a handful of workloads, each a few
 * hundred KB to a few MB of 4-byte ops (compiledBytes counts them) --
 * but clear() exists for tests.
 */

#ifndef MSPDSM_HARNESS_WORKLOAD_CACHE_HH
#define MSPDSM_HARNESS_WORKLOAD_CACHE_HH

#include <memory>
#include <string>

#include "workload/compiled_trace.hh"
#include "workload/suite.hh"

namespace mspdsm
{

/** Observability counters for the cache (sweep JSON, CI). */
struct WorkloadCacheStats
{
    std::uint64_t generations = 0;   //!< makeApp+compile actually run
    std::uint64_t hits = 0;          //!< requests served from the cache
    std::uint64_t failures = 0;      //!< generations that threw (the
                                     //!< entry is dropped so later
                                     //!< requests retry)
    double genSeconds = 0.0;         //!< wall time spent generating
    std::uint64_t compiledBytes = 0; //!< compiled ops held, summed over
                                     //!< generations: totalOps() *
                                     //!< sizeof(CompiledOp)
    std::uint64_t sourceOps = 0;     //!< generated ops before fusion
                                     //!< and folding, summed over
                                     //!< generations: sourceOps()
};

class WorkloadCache
{
  public:
    /**
     * The compiled workload for (@p app, @p p), generated and
     * compiled at most once per process for any given key. The key
     * covers the app name, every AppParams field, and the geometry
     * fields of AppParams::proto that generation or compilation can
     * observe (block size, page size, node count).
     */
    static std::shared_ptr<const CompiledWorkload>
    get(const std::string &app, const AppParams &p);

    /** Counters since process start (or the last clear()). */
    static WorkloadCacheStats stats();

    /** Drop all entries and reset the counters (tests). */
    static void clear();
};

} // namespace mspdsm

#endif // MSPDSM_HARNESS_WORKLOAD_CACHE_HH
