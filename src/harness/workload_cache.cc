#include "harness/workload_cache.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <tuple>

#include "base/logging.hh"

namespace mspdsm
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Everything generation and compilation can observe. */
using Key = std::tuple<std::string, unsigned, std::uint64_t, unsigned,
                       std::uint64_t, unsigned, unsigned, unsigned>;

Key
makeKey(const std::string &app, const AppParams &p)
{
    // scale enters the ordered map key as its bit pattern: keying on
    // the raw double would let a NaN (for which operator< is always
    // false) violate the map's strict weak ordering and silently
    // corrupt lookups, so non-finite scales are rejected outright.
    panic_if(!std::isfinite(p.scale), "non-finite AppParams::scale ",
             p.scale, " for app ", app);
    // Normalize -0.0 so the two equal zeros keep sharing one entry.
    const double scale = p.scale == 0.0 ? 0.0 : p.scale;
    return {app,          p.numProcs,
            std::bit_cast<std::uint64_t>(scale),
            p.iterations, p.seed,            p.proto.blockSize,
            p.proto.pageSize, p.proto.numNodes};
}

struct Cache
{
    std::mutex mu;
    // Each entry is a shared_future so racing workers block on the
    // first requester's generation instead of duplicating it; the
    // generation itself runs outside the lock.
    std::map<Key,
             std::shared_future<std::shared_ptr<const CompiledWorkload>>>
        entries;
    WorkloadCacheStats stats;
};

Cache &
cache()
{
    static Cache c;
    return c;
}

} // namespace

std::shared_ptr<const CompiledWorkload>
WorkloadCache::get(const std::string &app, const AppParams &p)
{
    Cache &c = cache();
    std::promise<std::shared_ptr<const CompiledWorkload>> promise;
    std::shared_future<std::shared_ptr<const CompiledWorkload>> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(c.mu);
        auto [it, inserted] =
            c.entries.try_emplace(makeKey(app, p), promise.get_future());
        if (inserted) {
            owner = true;
            ++c.stats.generations;
        }
        fut = it->second;
    }
    if (owner) {
        try {
            const auto t0 = Clock::now();
            auto cw = std::make_shared<const CompiledWorkload>(
                makeApp(app, p), AddrMap(p.proto));
            const double secs =
                std::chrono::duration<double>(Clock::now() - t0).count();
            {
                std::lock_guard<std::mutex> lock(c.mu);
                c.stats.genSeconds += secs;
                c.stats.compiledBytes +=
                    cw->totalOps() * sizeof(CompiledOp);
                c.stats.sourceOps += cw->sourceOps();
            }
            promise.set_value(std::move(cw));
        } catch (...) {
            // Unpublish before handing the failure to the waiters
            // already blocked on the future: once the entry is gone,
            // no later requester can inherit the broken future (they
            // re-insert and retry as owners). The generation stays
            // counted -- it really ran -- and the failure is tallied
            // separately so the sweep JSON counters stay consistent.
            {
                std::lock_guard<std::mutex> lock(c.mu);
                c.entries.erase(makeKey(app, p));
                ++c.stats.failures;
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    // A hit is a request the cache actually served: count it only
    // once the shared future delivers a workload, so waiters that
    // inherit the owner's exception (they rethrow here and retry)
    // never inflate the counter.
    auto cw = fut.get();
    if (!owner) {
        std::lock_guard<std::mutex> lock(c.mu);
        ++c.stats.hits;
    }
    return cw;
}

WorkloadCacheStats
WorkloadCache::stats()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.stats;
}

void
WorkloadCache::clear()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    c.entries.clear();
    c.stats = WorkloadCacheStats{};
}

} // namespace mspdsm
