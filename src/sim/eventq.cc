#include "sim/eventq.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace mspdsm
{

void
EventQueue::schedule(Tick when, Event &ev)
{
    panic_if(when < curTick_, "event scheduled in the past (", when,
             " < ", curTick_, ")");
    panic_if(ev.scheduled_, "event already scheduled (for tick ",
             ev.when_, ")");
    ev.when_ = when;
    ev.scheduled_ = true;
    ev.next_ = nullptr;
    if (gigaOf(when) <= gigaOf(curTick_) + 1) [[likely]]
        enqueueWheel(ev);
    else
        far_.push_back(FarEntry{when, &ev});
}

bool
EventQueue::unlinkFromBucket(Bucket &b, Event &ev)
{
    Event *prev = nullptr;
    for (Event *e = b.head; e; prev = e, e = e->next_) {
        if (e != &ev)
            continue;
        if (prev)
            prev->next_ = ev.next_;
        else
            b.head = ev.next_;
        if (b.tail == &ev)
            b.tail = prev;
        return b.head == nullptr;
    }
    panic("deschedule: event not found in its bucket");
}

bool
EventQueue::deschedule(Event &ev)
{
    if (!ev.scheduled_)
        return false;
    // An event's place is a pure function of its tick: gigaticks
    // curG/curG+1 live in the near wheel, everything later in the far
    // list.
    if (gigaOf(ev.when_) <= gigaOf(curTick_) + 1) {
        const std::size_t i = ev.when_ & wheelMask;
        if (unlinkFromBucket(buckets_[i], ev))
            occupied_[i / 64] &= ~(std::uint64_t{1} << (i & 63));
        --wheelCount_;
    } else {
        const auto it = std::find_if(
            far_.begin(), far_.end(),
            [&ev](const FarEntry &f) { return f.ev == &ev; });
        panic_if(it == far_.end(),
                 "deschedule: event not found in the far list");
        far_.erase(it); // stable: the list stays in schedule order
    }
    ev.scheduled_ = false;
    ev.next_ = nullptr;
    return true;
}

namespace
{

/**
 * First set bit in a circular @p nwords-word bitmap, scanning from
 * bit @p start upward with wrap-around. @return the bit index, or
 * SIZE_MAX if the bitmap is empty.
 */
std::size_t
firstOccupiedFrom(const std::uint64_t *words, std::size_t nwords,
                  std::size_t start)
{
    std::size_t word = start / 64;
    // Mask off bits below the start position in the first word.
    std::uint64_t bits = words[word] &
                         (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0; scanned <= nwords; ++scanned) {
        if (bits) {
            return word * 64 +
                   static_cast<std::size_t>(std::countr_zero(bits));
        }
        word = (word + 1) % nwords;
        bits = words[word];
        // Wrapped back to the first word: take only bits below start.
        if (word == start / 64)
            bits &= ~(~std::uint64_t{0} << (start & 63));
    }
    return ~std::size_t{0};
}

} // namespace

Tick
EventQueue::nextWheelTick() const
{
    // The window holds ticks [curTick_, curTick_ + wheelSize), one
    // bucket each; scan the occupancy bitmap circularly from the
    // window start.
    const std::size_t start = curTick_ & wheelMask;
    const std::size_t idx =
        firstOccupiedFrom(occupied_.data(), wheelWords, start);
    panic_if(idx == ~std::size_t{0}, "nextWheelTick on an empty wheel");
    // Circular distance from the window start to the bucket.
    return curTick_ + ((idx - start) & wheelMask);
}

Tick
EventQueue::nextFarTick() const
{
    panic_if(far_.empty(), "nextFarTick with no far events");
    Tick best = maxTick;
    for (const FarEntry &f : far_)
        best = std::min(best, f.when);
    return best;
}

void
EventQueue::advanceTo(Tick t)
{
    const bool newGiga = gigaOf(t) != gigaOf(curTick_);
    curTick_ = t;
    if (!newGiga)
        return;
    // The window now holds gigaticks curG and curG+1. Every far entry
    // now due lies in a gigatick that was outside the window until
    // this advance, so none of its ticks has taken a direct insert;
    // moving the entries in list (schedule) order keeps per-tick
    // FIFO. The rest are compacted in place, stably.
    const Tick lastG = gigaOf(t) + 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
        if (gigaOf(far_[i].when) <= lastG)
            enqueueWheel(*far_[i].ev);
        else
            far_[kept++] = far_[i];
    }
    far_.resize(kept);
}

bool
EventQueue::run(Tick limit)
{
    while (pending() > 0) {
        const Tick next =
            wheelCount_ > 0 ? nextWheelTick() : nextFarTick();
        if (next > limit)
            return false;
        advanceTo(next);

        // The occupancy bit tracks the bucket exactly, including
        // while handlers run: it is cleared the moment a pop empties
        // the bucket and re-set by enqueueWheel when a handler
        // schedules more same-tick work.
        Bucket &b = buckets_[next & wheelMask];
        while (Event *e = b.head) {
            b.head = e->next_;
            if (!b.head) {
                b.tail = nullptr;
                occupied_[(next & wheelMask) / 64] &=
                    ~(std::uint64_t{1} << (next & 63));
            }
            --wheelCount_;
            e->next_ = nullptr;
            e->scheduled_ = false;
            ++executed_;
            // process() may schedule new events, including into this
            // very bucket (same-tick work is drained in FIFO order).
            e->process();
        }
    }
    return true;
}

} // namespace mspdsm
