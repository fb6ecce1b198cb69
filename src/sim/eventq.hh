/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated machine. The kernel
 * is built for the protocol's event profile -- tens of millions of
 * events, almost all scheduled a few hundred ticks out -- so the
 * ordering structure is a hierarchy of timing wheels rather than a
 * binary heap:
 *
 *  - Events are *intrusive*: components derive from Event and own
 *    their event objects, so scheduling allocates nothing and firing
 *    is one virtual call. There is no callback API.
 *  - The near wheel covers the current and next 4096-tick "gigatick"
 *    (8192 one-tick buckets), one intrusive FIFO list per tick;
 *    within a tick, events fire in schedule order (the tie-break
 *    determinism the whole test suite depends on). A bitmap over the
 *    buckets makes "next occupied tick" a few word scans.
 *  - Events two to 255 gigaticks out (up to ~1M ticks) sit in the
 *    *far wheel*: 256 buckets of one gigatick each, again intrusive
 *    FIFO lists. When the near window first enters gigatick G-1, the
 *    far bucket for G is cascaded wholesale into the near wheel --
 *    before any tick of G can accept a direct insert, so per-tick
 *    FIFO order is preserved end-to-end. Far scheduling and
 *    cascading are O(1) per event; no comparisons.
 *  - Only events beyond the far horizon (> ~1M ticks, e.g. deadlock
 *    guards) take a small overflow heap ordered by (tick, seq); they
 *    migrate into the far wheel as the window advances.
 *
 * The clock is the machine's only timing base: an event fires at
 * curTick() and its handler acts at curTick(). Nothing runs ahead of
 * the clock, so the run's end time is simply curTick() once the
 * queue drains.
 */

#ifndef MSPDSM_SIM_EVENTQ_HH
#define MSPDSM_SIM_EVENTQ_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace mspdsm
{

class EventQueue;

/**
 * Base class of everything schedulable. Components embed (or pool)
 * their Event objects; an event may be rescheduled freely once it has
 * fired or been descheduled, but not while it is pending.
 */
class Event
{
  public:
    virtual ~Event() = default;

    /** Invoked by the queue at the scheduled tick. */
    virtual void process() = 0;

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** Scheduled tick (meaningful while scheduled). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    Event *next_ = nullptr; //!< intrusive bucket list link
    Tick when_ = 0;
    std::uint64_t seq_ = 0; //!< schedule order; breaks ties
    bool scheduled_ = false;
};

/**
 * Global event queue for one simulation instance.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p ev to fire at absolute time @p when.
     * @p when must not be in the past and @p ev must not already be
     * scheduled.
     */
    void schedule(Tick when, Event &ev);

    /** Schedule @p ev to fire @p delay ticks from now. */
    void
    scheduleAfter(Tick delay, Event &ev)
    {
        schedule(curTick_ + delay, ev);
    }

    /**
     * Make @p ev fire no later than @p when: arm it unless it is
     * already pending at or before @p when, moving a later arm
     * earlier. The one arming rule of every batch event -- it never
     * needs to fire later than any tick it is already set for, and
     * one that wakes early re-arms itself at its real next tick.
     */
    void
    scheduleBy(Tick when, Event &ev)
    {
        if (ev.scheduled()) {
            if (ev.when() <= when)
                return;
            deschedule(ev);
        }
        schedule(when, ev);
    }

    /**
     * Remove a pending event from the queue (any level: near wheel,
     * far wheel, or overflow heap). The event may be rescheduled
     * afterwards. No-op on an event that is not scheduled.
     * @return true iff the event was pending and has been removed
     */
    bool deschedule(Event &ev);

    /** Number of events not yet executed. */
    std::size_t
    pending() const
    {
        return wheelCount_ + farCount_ + heap_.size();
    }

    /**
     * Run until the queue drains or an event beyond @p limit is next.
     * @return true if the queue drained, false if the limit was hit
     *         (which usually indicates a deadlock in the simulated
     *         machine and is treated as an error by callers).
     */
    bool run(Tick limit = maxTick);

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

  private:
    /**
     * One gigatick: the granularity of the far wheel and half the
     * near wheel. Sized to cover not just the protocol's raw
     * latencies (all < 512) but the NI backlog a contended interface
     * can accumulate.
     */
    static constexpr unsigned gigaBits = 12;
    static constexpr Tick gigaSize = Tick{1} << gigaBits;

    /**
     * Near wheel: one bucket per tick over two gigaticks, so every
     * event within the current or next gigatick inserts directly
     * (the sliding 4096-tick near window of the protocol always fits)
     * and a cascaded gigatick lands beside the live one. 8192 buckets
     * cost 128KB + a 1KB bitmap.
     */
    static constexpr std::size_t wheelSize = 2 * gigaSize;
    static constexpr std::size_t wheelMask = wheelSize - 1;
    static constexpr std::size_t wheelWords = wheelSize / 64;

    /**
     * Far wheel: one bucket per gigatick. Live buckets span gigaticks
     * (cascadedG_, curG + farSize - 1], strictly fewer than farSize
     * values, so a bucket index maps to exactly one live gigatick.
     */
    static constexpr std::size_t farSize = 256;
    static constexpr std::size_t farMask = farSize - 1;
    static constexpr std::size_t farWords = farSize / 64;

    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
    };

    struct FarLater
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Gigatick index of a tick. */
    static constexpr Tick
    gigaOf(Tick t)
    {
        return t >> gigaBits;
    }

    /** Append to the near-wheel bucket for ev.when_ and mark it. */
    void
    enqueueWheel(Event &ev)
    {
        Bucket &b = buckets_[ev.when_ & wheelMask];
        if (b.tail)
            b.tail->next_ = &ev;
        else
            b.head = &ev;
        b.tail = &ev;
        occupied_[(ev.when_ & wheelMask) / 64] |=
            std::uint64_t{1} << (ev.when_ & 63);
        ++wheelCount_;
    }

    /** Append to the far-wheel bucket for ev.when_'s gigatick. */
    void
    enqueueFar(Event &ev)
    {
        const std::size_t b = gigaOf(ev.when_) & farMask;
        Bucket &fb = farBuckets_[b];
        if (fb.tail)
            fb.tail->next_ = &ev;
        else
            fb.head = &ev;
        fb.tail = &ev;
        farOccupied_[b / 64] |= std::uint64_t{1} << (b & 63);
        ++farCount_;
    }

    /** Unlink @p ev from @p b (must be a member). @return emptied */
    static bool unlinkFromBucket(Bucket &b, Event &ev);

    /** Fold far bucket @p b wholesale into the near wheel. */
    void drainFarBucket(std::size_t b);

    /** Smallest occupied wheel tick >= curTick_ (wheel non-empty). */
    Tick nextWheelTick() const;

    /** Earliest far event (far wheel or heap; one of them non-empty). */
    Tick nextFarTick() const;

    /**
     * Move to tick @p t: advance the window, cascading far-wheel
     * buckets and migrating heap events that now fit lower levels.
     */
    void advanceTo(Tick t);

    /** Cascade/migrate after the window entered gigatick @p newG. */
    void cascadeTo(Tick newG);

    std::array<Bucket, wheelSize> buckets_{};
    std::array<std::uint64_t, wheelWords> occupied_{};
    std::array<Bucket, farSize> farBuckets_{};
    std::array<std::uint64_t, farWords> farOccupied_{};
    Tick wheelBase_ = 0; //!< window start; == curTick_ while running
    std::size_t wheelCount_ = 0;
    std::size_t farCount_ = 0;
    /**
     * Far-wheel buckets for gigaticks <= cascadedG_ have been folded
     * into the near wheel; always curG + 1 after an advance, so a
     * gigatick's bucket empties before any of its ticks accepts a
     * direct near-wheel insert (the FIFO invariant).
     */
    Tick cascadedG_ = 1;
    //! Overflow min-heap (std::push_heap/pop_heap on a vector, so
    //! deschedule() can excise entries exactly).
    std::vector<FarEntry> heap_;

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace mspdsm

#endif // MSPDSM_SIM_EVENTQ_HH
