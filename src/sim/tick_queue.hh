/**
 * @file
 * TickQueue: the (tick, payload) queue behind every batch event.
 *
 * Three simulator components keep work that comes due at a known tick
 * behind one self-arming event: each NI's ingress (keyed by arrival),
 * the machine-wide local loopback (keyed by due tick) and each home
 * directory's deferred actions (keyed by due tick). All three push in
 * nearly sorted order and pop from the front, so the queue is a
 * vector with a consumed-prefix index rather than a heap: a push
 * appends, or lands by a short scan from the back when it is out of
 * order; equal ticks keep push order; a pop bumps the index. The
 * popped prefix is reclaimed whenever the queue drains empty (keeping
 * capacity, so the steady state allocates nothing) and compacted in
 * place once it outgrows both a small bound and the live suffix.
 */

#ifndef MSPDSM_SIM_TICK_QUEUE_HH
#define MSPDSM_SIM_TICK_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace mspdsm
{

template <class T>
class TickQueue
{
  public:
    /** One queued payload and the tick it is keyed by. */
    struct Item
    {
        /** The payload built in place from @p args, so emplace()
         * constructs it in its slot rather than copying a temporary. */
        template <class... Args>
        Item(Tick t, std::piecewise_construct_t, Args &&...args)
            : tick(t), val{std::forward<Args>(args)...}
        {}

        Tick tick;
        T val;
    };

    bool empty() const { return head_ == q_.size(); }
    std::size_t size() const { return q_.size() - head_; }

    /** Slots in use, the popped prefix included (tests). */
    std::size_t held() const { return q_.size(); }

    /** The earliest item; equal ticks come out in push order. */
    const Item &front() const { return q_[head_]; }

    /** True when the front item's tick has come by @p now. */
    bool due(Tick now) const { return !empty() && front().tick <= now; }

    /** Queue @p val at @p tick, after every item with tick <= @p tick. */
    void push(Tick tick, const T &val) { emplace(tick, val); }

    /**
     * As push(), constructing the payload from @p args in its slot:
     * the item is built in place rather than assembled in a temporary
     * and copied in (a store-forwarding stall on the per-message
     * path).
     */
    template <class... Args>
    void
    emplace(Tick tick, Args &&...args)
    {
        if (!empty() && tick < q_.back().tick) [[unlikely]] {
            auto it = q_.end();
            const auto first = begin();
            while (it != first && tick < std::prev(it)->tick)
                --it;
            q_.emplace(it, tick, std::piecewise_construct,
                       std::forward<Args>(args)...);
        } else {
            q_.emplace_back(tick, std::piecewise_construct,
                            std::forward<Args>(args)...);
        }
    }

    /** Drop the front item. Copy front() out first: popping (and any
     * later push) may move the storage it refers to. */
    void
    pop()
    {
        if (++head_ == q_.size()) {
            clear(); // keeps capacity
        } else if (head_ >= compactAt && head_ >= size()) {
            // Backstop for a queue that never fully drains: slide the
            // live suffix down so the popped prefix stays bounded.
            // Waiting until the prefix outweighs the suffix keeps the
            // move amortized O(1) per pop.
            q_.erase(q_.begin(), begin());
            head_ = 0;
        }
    }

    /** Remove every item whose payload satisfies @p pred, keeping the
     * order of the rest. */
    template <class Pred>
    void
    eraseIf(Pred pred)
    {
        q_.erase(std::remove_if(begin(), q_.end(),
                                [&](const Item &i) { return pred(i.val); }),
                 q_.end());
        if (empty())
            clear();
    }

    /** Drop everything (keeps capacity). */
    void
    clear()
    {
        q_.clear();
        head_ = 0;
    }

  private:
    /** Popped items tolerated before an in-place compaction. */
    static constexpr std::size_t compactAt = 64;

    typename std::vector<Item>::iterator
    begin()
    {
        return q_.begin() + static_cast<std::ptrdiff_t>(head_);
    }

    std::vector<Item> q_;   //!< [head_, end) live, sorted by tick
    std::size_t head_ = 0;  //!< first unpopped item
};

} // namespace mspdsm

#endif // MSPDSM_SIM_TICK_QUEUE_HH
