/** @file Shared helpers for simulator-level tests. */

#ifndef MSPDSM_TESTS_TESTUTIL_HH
#define MSPDSM_TESTS_TESTUTIL_HH

#include <utility>
#include <vector>

#include "base/chunked_vector.hh"
#include "dsm/system.hh"
#include "sim/eventq.hh"
#include "workload/layout.hh"

namespace mspdsm::test
{

/** A default small config: 4 nodes unless overridden. */
inline DsmConfig
smallConfig(unsigned nodes = 4)
{
    DsmConfig cfg;
    cfg.proto.numNodes = nodes;
    cfg.proto.netJitter = 0;
    return cfg;
}

/** Empty traces for all processors. */
inline std::vector<Trace>
idleTraces(unsigned nodes)
{
    return std::vector<Trace>(nodes);
}

/**
 * Byte address of the i-th block on the first page homed at @p home
 * (given page-interleaved assignment).
 */
inline Addr
blockOn(const ProtoConfig &cfg, NodeId home, unsigned i = 0)
{
    return static_cast<Addr>(home) * cfg.pageSize +
           static_cast<Addr>(i) * cfg.blockSize;
}

/** Traces where only processor @p who runs @p t. */
inline std::vector<Trace>
soloTrace(unsigned nodes, NodeId who, Trace t)
{
    std::vector<Trace> ts(nodes);
    ts[who] = std::move(t);
    return ts;
}

/**
 * An intrusive event that runs a callable each time it fires: the
 * test-side stand-in for a component's own Event subclass.
 */
template <typename Fn>
struct At final : public Event
{
    explicit At(Fn f) : fn(std::move(f)) {}

    void process() override { fn(); }

    Fn fn;
};

/**
 * Slab-backed free-list pool for a test's event objects:
 * acquire() recycles or carves a new event from chunked storage
 * (stable addresses), release() returns it. The pool owns the slabs;
 * events must not be released twice or used after release.
 */
template <typename T>
class EventPool
{
  public:
    /** Get an event; @p args are used only when a new one is carved. */
    template <typename... Args>
    T &
    acquire(Args &&...args)
    {
        if (!free_.empty()) {
            T *e = free_.back();
            free_.pop_back();
            return *e;
        }
        return slab_.emplace_back(std::forward<Args>(args)...);
    }

    /** Return an event to the pool. */
    void release(T &e) { free_.push_back(&e); }

    /**
     * Visit every event ever carved from this pool, live or free
     * (free-listed events are never scheduled, so callers that only
     * care about pending ones filter on Event::scheduled()). This is
     * the mass-cancellation primitive: a component going down walks
     * its pool, descheduling and releasing everything still pending.
     */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::size_t i = 0; i < slab_.size(); ++i)
            f(slab_[i]);
    }

  private:
    ChunkedVector<T> slab_;
    std::vector<T *> free_;
};

} // namespace mspdsm::test

#endif // MSPDSM_TESTS_TESTUTIL_HH
