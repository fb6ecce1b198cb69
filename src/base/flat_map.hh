/**
 * @file
 * Open-addressing hash map for sparse keys.
 *
 * Per-block state is not kept here: blocks are numbered densely per
 * home and live in arrays (proto/shard_table.hh). FlatMap holds what
 * has no dense index -- the pattern entries and reader vectors that
 * overflow a predictor's block record. With node-based
 * std::unordered_map every lookup chases at least one cache-missing
 * pointer and every insert allocates. FlatMap stores <key, value>
 * slots inline in one power-of-two array with linear probing, a
 * one-byte control array (empty / full / tombstone), and an
 * avalanche-mixed hash, so the common lookup touches one control
 * cache line plus one slot.
 *
 * Semantics deliberately kept from unordered_map: amortized O(1)
 * find/insert/erase, try_emplace forwarding, iteration over live
 * slots. The one difference callers must respect: *rehash invalidates
 * references and iterators* (unordered_map keeps references stable).
 * Simulator code therefore re-fetches entries by key after any
 * operation that may insert -- the discipline the event-driven code
 * already followed for iterator stability.
 *
 * Not thread-safe, like the rest of one simulation instance.
 */

#ifndef MSPDSM_BASE_FLAT_MAP_HH
#define MSPDSM_BASE_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "base/logging.hh"

namespace mspdsm
{

/**
 * Finalizer-style avalanche mix (splitmix64): every input bit affects
 * every output bit, which open addressing with a power-of-two mask
 * needs -- identity hashing of structured keys (stride patterns!)
 * would cluster probes catastrophically.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Default hash: avalanche mix for integral keys. */
template <typename K>
struct FlatHash
{
    static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                  "provide an explicit hash functor for non-integral "
                  "FlatMap keys");

    std::size_t
    operator()(const K &k) const
    {
        return static_cast<std::size_t>(
            mix64(static_cast<std::uint64_t>(k)));
    }
};

/**
 * Open-addressing hash map: power-of-two capacity, linear probing,
 * tombstone deletion.
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    /** Live slot, shaped like unordered_map's value_type. */
    struct Slot
    {
        K first;
        V second;
    };

    template <bool Const>
    class Iter
    {
      public:
        using MapT = std::conditional_t<Const, const FlatMap, FlatMap>;
        using SlotT = std::conditional_t<Const, const Slot, Slot>;

        Iter() = default;
        Iter(MapT *m, std::size_t i) : map_(m), idx_(i) { skip(); }

        /** Conversion iterator -> const_iterator. */
        operator Iter<true>() const
        {
            Iter<true> it;
            it.map_ = map_;
            it.idx_ = idx_;
            return it;
        }

        SlotT &operator*() const { return map_->slots_[idx_]; }
        SlotT *operator->() const { return &map_->slots_[idx_]; }

        Iter &
        operator++()
        {
            ++idx_;
            skip();
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return idx_ == o.idx_;
        }

      private:
        friend class FlatMap;
        friend class Iter<!Const>;

        void
        skip()
        {
            while (map_ && idx_ < map_->cap_ &&
                   map_->ctrl_[idx_] != ctrlFull) {
                ++idx_;
            }
        }

        MapT *map_ = nullptr;
        std::size_t idx_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    FlatMap(FlatMap &&o) noexcept { swap(o); }

    FlatMap &
    operator=(FlatMap &&o) noexcept
    {
        if (this != &o) {
            destroy();
            swap(o);
        }
        return *this;
    }

    FlatMap(const FlatMap &o) { *this = o; }

    FlatMap &
    operator=(const FlatMap &o)
    {
        if (this != &o) {
            destroy();
            reserve(o.size_);
            for (const Slot &s : o)
                try_emplace(s.first, s.second);
        }
        return *this;
    }

    ~FlatMap() { destroy(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots allocated (diagnostics / load-factor tests). */
    std::size_t capacity() const { return cap_; }

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, cap_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, cap_); }

    iterator
    find(const K &k)
    {
        const std::size_t i = locate(k, Hash{}(k));
        return i == npos ? end() : iterator(this, i);
    }

    const_iterator
    find(const K &k) const
    {
        const std::size_t i = locate(k, Hash{}(k));
        return i == npos ? end()
                         : const_iterator(this, i);
    }

    bool
    contains(const K &k) const
    {
        return locate(k, Hash{}(k)) != npos;
    }

    /**
     * Insert a value constructed from @p args under @p k unless the
     * key already exists. One fused probe pass covers both the lookup
     * and the insert position (first tombstone on the path, else the
     * terminating empty slot).
     * @return {iterator to the slot, true iff newly inserted}
     */
    template <typename... Args>
    std::pair<iterator, bool>
    try_emplace(const K &k, Args &&...args)
    {
        const std::size_t hash = Hash{}(k);
        if (cap_ == 0)
            rehash(minCap);
        std::size_t i = hash & mask();
        std::size_t tomb = npos;
        while (ctrl_[i] != ctrlEmpty) {
            if (ctrl_[i] == ctrlFull) {
                if (slots_[i].first == k)
                    return {iterator(this, i), false};
            } else if (tomb == npos) {
                tomb = i;
            }
            i = (i + 1) & mask();
        }
        if (tomb != npos) {
            i = tomb;
            --tombs_;
        } else if (needsGrowth(1)) {
            // No tombstone to reuse and the table is getting full:
            // grow (or purge) first, then take the fresh probe path.
            rehash(size_ * 2 >= cap_ ? cap_ * 2 : cap_);
            i = insertSlotFor(hash);
        }
        new (&slots_[i]) Slot{k, V(std::forward<Args>(args)...)};
        ctrl_[i] = ctrlFull;
        ++size_;
        return {iterator(this, i), true};
    }

    /** Find-or-default-construct, as unordered_map::operator[]. */
    V &operator[](const K &k) { return try_emplace(k).first->second; }

    /**
     * Erase the entry for @p k.
     * @return number of entries removed (0 or 1)
     */
    std::size_t
    erase(const K &k)
    {
        const std::size_t i = locate(k, Hash{}(k));
        if (i == npos)
            return 0;
        slots_[i].~Slot();
        ctrl_[i] = ctrlTomb;
        --size_;
        ++tombs_;
        return 1;
    }

    /** Remove every entry, keeping the allocation. */
    void
    clear()
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (ctrl_[i] == ctrlFull)
                slots_[i].~Slot();
            ctrl_[i] = ctrlEmpty;
        }
        size_ = 0;
        tombs_ = 0;
    }

    /** Grow so that @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = minCap;
        while (n * 8 >= want * 7)
            want <<= 1;
        if (want > cap_)
            rehash(want);
    }

    /**
     * True iff inserting @p extra more entries would trigger a grow
     * or purge inside try_emplace (the same 7/8 threshold the insert
     * path itself applies).
     */
    bool
    needsGrowth(std::size_t extra) const
    {
        return (size_ + tombs_ + extra) * 8 >= cap_ * 7;
    }

  private:
    static constexpr std::uint8_t ctrlEmpty = 0;
    static constexpr std::uint8_t ctrlFull = 1;
    static constexpr std::uint8_t ctrlTomb = 2;
    static constexpr std::size_t npos = ~std::size_t{0};
    /**
     * Small first allocation: predictor pattern tables hold only a
     * few entries per block, and a simulation touches many thousands
     * of blocks, so the cold-start footprint matters as much as the
     * steady-state probe count.
     */
    static constexpr std::size_t minCap = 8;

    std::size_t
    mask() const
    {
        return cap_ - 1;
    }

    /** Index of the live slot holding @p k, or npos. */
    std::size_t
    locate(const K &k, std::size_t hash) const
    {
        if (cap_ == 0)
            return npos;
        std::size_t i = hash & mask();
        while (true) {
            if (ctrl_[i] == ctrlEmpty)
                return npos;
            if (ctrl_[i] == ctrlFull && slots_[i].first == k)
                return i;
            i = (i + 1) & mask();
        }
    }

    /**
     * Probe position for inserting a key with hash @p hash (known
     * absent): the first tombstone on the probe path if any, else the
     * terminating empty slot -- tombstone reuse keeps erase-heavy
     * tables compact.
     */
    std::size_t
    insertSlotFor(std::size_t hash)
    {
        std::size_t i = hash & mask();
        std::size_t tomb = npos;
        while (ctrl_[i] != ctrlEmpty) {
            if (ctrl_[i] == ctrlTomb && tomb == npos)
                tomb = i;
            i = (i + 1) & mask();
        }
        if (tomb != npos) {
            --tombs_;
            return tomb;
        }
        return i;
    }

    void
    rehash(std::size_t newCap)
    {
        panic_if(newCap & (newCap - 1), "FlatMap capacity not pow2");
        Slot *oldSlots = slots_;
        std::uint8_t *oldCtrl = ctrl_;
        const std::size_t oldCap = cap_;

        slots_ = std::allocator<Slot>().allocate(newCap);
        ctrl_ = new std::uint8_t[newCap]();
        cap_ = newCap;
        tombs_ = 0;

        for (std::size_t i = 0; i < oldCap; ++i) {
            if (oldCtrl[i] != ctrlFull)
                continue;
            const std::size_t j =
                insertSlotFor(Hash{}(oldSlots[i].first));
            new (&slots_[j]) Slot{std::move(oldSlots[i].first),
                                  std::move(oldSlots[i].second)};
            ctrl_[j] = ctrlFull;
            oldSlots[i].~Slot();
        }
        if (oldCap) {
            std::allocator<Slot>().deallocate(oldSlots, oldCap);
            delete[] oldCtrl;
        }
    }

    void
    destroy()
    {
        if (!cap_)
            return;
        for (std::size_t i = 0; i < cap_; ++i)
            if (ctrl_[i] == ctrlFull)
                slots_[i].~Slot();
        std::allocator<Slot>().deallocate(slots_, cap_);
        delete[] ctrl_;
        slots_ = nullptr;
        ctrl_ = nullptr;
        cap_ = size_ = tombs_ = 0;
    }

    void
    swap(FlatMap &o) noexcept
    {
        std::swap(slots_, o.slots_);
        std::swap(ctrl_, o.ctrl_);
        std::swap(cap_, o.cap_);
        std::swap(size_, o.size_);
        std::swap(tombs_, o.tombs_);
    }

    Slot *slots_ = nullptr;
    std::uint8_t *ctrl_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
};

} // namespace mspdsm

#endif // MSPDSM_BASE_FLAT_MAP_HH
