/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated machine. The
 * protocol keeps few events pending (tens at a time, a couple of
 * hundred at most) and schedules almost all of them a few hundred
 * ticks out, so the ordering structure is one timing wheel plus a
 * short list for the rare distant event:
 *
 *  - Events are *intrusive*: components derive from Event and own
 *    their event objects, so scheduling allocates nothing and firing
 *    is one virtual call. There is no callback API.
 *  - The near wheel covers the current and next 4096-tick "gigatick"
 *    (8192 one-tick buckets), one intrusive FIFO list per tick;
 *    within a tick, events fire in schedule order (the tie-break
 *    determinism the whole test suite depends on). A bitmap over the
 *    buckets makes "next occupied tick" a few word scans.
 *  - Events two or more gigaticks out (fault-run retry timers, long
 *    guards) are appended to the *far list* in schedule order. When
 *    the window enters a new gigatick, every far event now inside it
 *    moves into the near wheel in list order -- before any tick of
 *    its gigatick can accept a direct insert, so per-tick FIFO order
 *    is preserved end-to-end.
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
     * Remove a pending event from the queue (near wheel or far
     * list). The event may be rescheduled afterwards. No-op on an
     * event that is not scheduled.
     * @return true iff the event was pending and has been removed
     */
    bool deschedule(Event &ev);

    /** Number of events not yet executed. */
    std::size_t
    pending() const
    {
        return wheelCount_ + far_.size();
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
     * One gigatick: the window step and half the near wheel. Sized to
     * cover not just the protocol's raw latencies (all < 512) but the
     * NI backlog a contended interface can accumulate.
     */
    static constexpr unsigned gigaBits = 12;
    static constexpr Tick gigaSize = Tick{1} << gigaBits;

    /**
     * Near wheel: one bucket per tick over two gigaticks, so every
     * event within the current or next gigatick inserts directly
     * (the sliding 4096-tick near window of the protocol always fits)
     * and a gigatick moved in from the far list lands beside the live
     * one. 8192 buckets cost 128KB + a 1KB bitmap.
     */
    static constexpr std::size_t wheelSize = 2 * gigaSize;
    static constexpr std::size_t wheelMask = wheelSize - 1;
    static constexpr std::size_t wheelWords = wheelSize / 64;

    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /** A far-list entry; the tick is copied out for the scans. */
    struct FarEntry
    {
        Tick when;
        Event *ev;
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

    /** Unlink @p ev from @p b (must be a member). @return emptied */
    static bool unlinkFromBucket(Bucket &b, Event &ev);

    /** Smallest occupied wheel tick >= curTick_ (wheel non-empty). */
    Tick nextWheelTick() const;

    /** Earliest far-list tick (list non-empty). */
    Tick nextFarTick() const;

    /**
     * Move to tick @p t; on entering a new gigatick, move every far
     * event now inside the window into the near wheel.
     */
    void advanceTo(Tick t);

    std::array<Bucket, wheelSize> buckets_{};
    std::array<std::uint64_t, wheelWords> occupied_{};
    std::size_t wheelCount_ = 0;
    /**
     * Events beyond gigatick curG + 1, in schedule order. Stable
     * removal keeps that order, which is what makes moving them into
     * the wheel in list order FIFO-safe.
     */
    std::vector<FarEntry> far_;

    Tick curTick_ = 0; //!< also the near window's start
    std::uint64_t executed_ = 0;
};

} // namespace mspdsm

#endif // MSPDSM_SIM_EVENTQ_HH
