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
    ev.seq_ = nextSeq_++;
    ev.scheduled_ = true;
    ev.next_ = nullptr;
    // wheelBase_ == curTick_, so the gigatick delta never underflows.
    const Tick gDelta = gigaOf(when) - gigaOf(wheelBase_);
    if (gDelta <= 1) [[likely]]
        enqueueWheel(ev);
    else if (gDelta < farSize)
        enqueueFar(ev);
    else {
        heap_.push_back(FarEntry{when, ev.seq_, &ev});
        std::push_heap(heap_.begin(), heap_.end(), FarLater{});
    }
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
    // The wheel invariants make an event's level a pure function of
    // its tick: gigaticks curG/curG+1 live in the near wheel, the
    // next 254 in the far wheel, everything beyond in the heap.
    const Tick g = gigaOf(ev.when_);
    const Tick curG = gigaOf(wheelBase_);
    if (g <= curG + 1) {
        const std::size_t i = ev.when_ & wheelMask;
        if (unlinkFromBucket(buckets_[i], ev))
            occupied_[i / 64] &= ~(std::uint64_t{1} << (i & 63));
        --wheelCount_;
    } else if (g - curG < farSize) {
        const std::size_t b = g & farMask;
        if (unlinkFromBucket(farBuckets_[b], ev))
            farOccupied_[b / 64] &= ~(std::uint64_t{1} << (b & 63));
        --farCount_;
    } else {
        auto it = heap_.begin();
        for (; it != heap_.end(); ++it)
            if (it->ev == &ev)
                break;
        panic_if(it == heap_.end(),
                 "deschedule: event not found in the overflow heap");
        heap_.erase(it);
        std::make_heap(heap_.begin(), heap_.end(), FarLater{});
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
 * SIZE_MAX if the bitmap is empty. Shared by the near- and far-wheel
 * "next occupied bucket" scans.
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
    // The window holds ticks [wheelBase_, wheelBase_ + wheelSize), one
    // bucket each; scan the occupancy bitmap circularly from the
    // window start.
    const std::size_t start = wheelBase_ & wheelMask;
    const std::size_t idx =
        firstOccupiedFrom(occupied_.data(), wheelWords, start);
    panic_if(idx == ~std::size_t{0}, "nextWheelTick on an empty wheel");
    // Circular distance from the window start to the bucket.
    return wheelBase_ + ((idx - start) & wheelMask);
}

Tick
EventQueue::nextFarTick() const
{
    Tick best = maxTick;
    if (farCount_ > 0) {
        // The first live bucket circularly from the first un-cascaded
        // gigatick holds the smallest far gigatick (live gigaticks
        // span fewer than farSize values); its earliest event is the
        // far wheel's minimum.
        const std::size_t idx = firstOccupiedFrom(
            farOccupied_.data(), farWords, (cascadedG_ + 1) & farMask);
        panic_if(idx == ~std::size_t{0},
                 "far count positive but no live far bucket");
        for (const Event *e = farBuckets_[idx].head; e; e = e->next_)
            best = std::min(best, e->when_);
    }
    if (!heap_.empty())
        best = std::min(best, heap_.front().when);
    panic_if(best == maxTick, "nextFarTick with no far events");
    return best;
}

void
EventQueue::drainFarBucket(std::size_t b)
{
    Bucket &fb = farBuckets_[b];
    Event *e = fb.head;
    fb.head = nullptr;
    fb.tail = nullptr;
    farOccupied_[b / 64] &= ~(std::uint64_t{1} << (b & 63));
    // List order is schedule order, and no tick of this gigatick has
    // accepted a direct near-wheel insert yet, so appending in list
    // order preserves per-tick FIFO.
    while (e) {
        Event *next = e->next_;
        e->next_ = nullptr;
        --farCount_;
        enqueueWheel(*e);
        e = next;
    }
}

void
EventQueue::cascadeTo(Tick newG)
{
    // Fold far buckets for gigaticks (cascadedG_, newG + 1] into the
    // near wheel, in gigatick order. The window only ever advances to
    // the earliest pending tick, and live far events sit within
    // (cascadedG_, cascadedG_ + farSize - 1], so a non-empty far
    // wheel bounds the jump: the iteration below covers at most
    // farSize gigaticks and each index maps to exactly one of them.
    if (farCount_ > 0) {
        panic_if(newG + 1 - cascadedG_ > farSize,
                 "window advanced past live far-wheel events");
        for (Tick g = cascadedG_ + 1; g <= newG + 1 && farCount_ > 0;
             ++g) {
            const std::size_t b = g & farMask;
            if (farOccupied_[b / 64] >> (b & 63) & 1)
                drainFarBucket(b);
        }
    }
    cascadedG_ = newG + 1;

    // Pull overflow-heap events that now fit the wheels. They pop in
    // (when, seq) order and no same-tick insert can have preceded
    // them at the target level, so FIFO order is preserved.
    while (!heap_.empty() && gigaOf(heap_.front().when) - newG < farSize) {
        Event *ev = heap_.front().ev;
        std::pop_heap(heap_.begin(), heap_.end(), FarLater{});
        heap_.pop_back();
        if (gigaOf(ev->when_) <= newG + 1)
            enqueueWheel(*ev);
        else
            enqueueFar(*ev);
    }
}

void
EventQueue::advanceTo(Tick t)
{
    curTick_ = t;
    wheelBase_ = t;
    const Tick newG = gigaOf(t);
    if (newG + 1 > cascadedG_)
        cascadeTo(newG);
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
