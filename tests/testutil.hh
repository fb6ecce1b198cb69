/** @file Shared helpers for simulator-level tests. */

#ifndef MSPDSM_TESTS_TESTUTIL_HH
#define MSPDSM_TESTS_TESTUTIL_HH

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

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
 * Free-list pool for a test's event objects: acquire() recycles or
 * carves a new event from a deque (stable addresses), release()
 * returns it. The pool owns the events; they must not be released
 * twice or used after release.
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
    std::deque<T> slab_;
    std::vector<T *> free_;
};

/**
 * Real caches and home directories on one jitter-free crossbar, with
 * no processors: a test issues accesses at chosen ticks and reads
 * back the order in which they complete.
 */
class AccessRig
{
  public:
    explicit AccessRig(unsigned nodes)
    {
        cfg.numNodes = nodes;
        cfg.netJitter = 0;
        net = std::make_unique<Network>(eq, cfg, Rng(1));
        for (NodeId n = 0; n < nodes; ++n) {
            caches.emplace_back(n, eq, *net, cfg);
            dirs.emplace_back(n, eq, *net, cfg,
                              std::vector<PredictorBase *>{}, nullptr,
                              SpecMode::None);
            done_.emplace_back(this, n);
        }
        for (NodeId n = 0; n < nodes; ++n)
            net->attach(n, caches[n], dirs[n]);
    }

    /** Node @p n reads or writes block @p blk at tick @p when. */
    void
    issueAt(Tick when, NodeId n, BlockId blk, bool write)
    {
        eq.schedule(when, issues_.emplace_back(this, n, blk, write));
    }

    EventQueue eq;
    ProtoConfig cfg;
    std::unique_ptr<Network> net;
    std::deque<CacheCtrl> caches;
    std::deque<Directory> dirs;
    std::vector<NodeId> order; //!< nodes, in access-completion order
    //! Called after each completion is recorded (may be empty).
    std::function<void(NodeId)> onDone;

  private:
    struct Done final : MemCompletion
    {
        Done(AccessRig *r, NodeId n)
            : MemCompletion(&Done::fire), rig(r), node(n)
        {}

        static void
        fire(MemCompletion &self, bool)
        {
            const Done &d = static_cast<Done &>(self);
            d.rig->completed(d.node);
        }

        AccessRig *rig;
        NodeId node;
    };

    struct Issue final : Event
    {
        Issue(AccessRig *r, NodeId n, BlockId b, bool w)
            : rig(r), node(n), blk(b), write(w)
        {}

        void
        process() override
        {
            // A hit completes on the spot; a miss at its fill.
            if (rig->caches[node].access(blk, write, rig->done_[node]))
                rig->completed(node);
        }

        AccessRig *rig;
        NodeId node;
        BlockId blk;
        bool write;
    };

    void
    completed(NodeId n)
    {
        order.push_back(n);
        if (onDone)
            onDone(n);
    }

    std::deque<Done> done_;
    std::deque<Issue> issues_;
};

} // namespace mspdsm::test

#endif // MSPDSM_TESTS_TESTUTIL_HH
