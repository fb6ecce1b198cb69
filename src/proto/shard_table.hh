/**
 * @file
 * Per-block state as plain arrays, one per home shard.
 *
 * A compiled workload numbers its blocks densely per home
 * (workload/compiled_trace.hh), so the local index of
 * AddrMap::shardSlotOf() runs 0, 1, 2, ... within each home and a
 * per-block table is one vector per home indexed by it: a lookup is a
 * shift, a mask and an indexed load, with no hashing and no probing.
 *
 * Tables are indexed by (home, local index), never by local index
 * alone: a directory also hosts the shards it adopts during
 * re-homing, and a predictor on an interim host sees blocks of two
 * homes, whose local indices overlap.
 *
 * DsmSystem::run() sizes each shard from the workload's per-home
 * block counts, so nothing grows in steady state. A block past the
 * end of its shard (component tests that send raw block ids, adopted
 * shards) grows the shard on demand. Growth reallocates, so a
 * reference into the table is valid only until the next non-const
 * lookup of a block that may not have been seen yet -- the same
 * discipline the hash maps it replaced imposed.
 */

#ifndef MSPDSM_PROTO_SHARD_TABLE_HH
#define MSPDSM_PROTO_SHARD_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "proto/config.hh"

namespace mspdsm
{

template <typename T>
class ShardTable
{
  public:
    explicit ShardTable(const AddrMap &map)
        : map_(map), shards_(map.numNodes())
    {}

    /** Make room for @p blocks blocks in shard @p home (no shrink). */
    void
    reserve(NodeId home, std::size_t blocks)
    {
        std::vector<T> &s = shards_[home];
        if (s.size() < blocks)
            s.resize(blocks);
    }

    /** The block's slot, value-initialized on first use. */
    T &
    operator[](BlockId blk)
    {
        const AddrMap::ShardSlot at = map_.shardSlotOf(blk);
        std::vector<T> &s = shards_[at.home];
        const std::size_t i = at.local;
        if (i >= s.size()) [[unlikely]]
            grow(s, i);
        return s[i];
    }

    /** The block's slot, or null if its shard never reached it. */
    const T *
    find(BlockId blk) const
    {
        const AddrMap::ShardSlot at = map_.shardSlotOf(blk);
        const std::vector<T> &s = shards_[at.home];
        const std::size_t i = at.local;
        return i < s.size() ? &s[i] : nullptr;
    }

    T *
    find(BlockId blk)
    {
        return const_cast<T *>(std::as_const(*this).find(blk));
    }

    /** Visit shard @p home's slots as (BlockId, T&), in index order. */
    template <typename F>
    void
    forEachIn(NodeId home, F &&f)
    {
        std::vector<T> &s = shards_[home];
        for (std::size_t i = 0; i < s.size(); ++i)
            f(map_.blockAt(home, i), s[i]);
    }

    template <typename F>
    void
    forEachIn(NodeId home, F &&f) const
    {
        const std::vector<T> &s = shards_[home];
        for (std::size_t i = 0; i < s.size(); ++i)
            f(map_.blockAt(home, i), s[i]);
    }

    /** Visit every slot in (home, local index) order. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::size_t h = 0; h < shards_.size(); ++h)
            forEachIn(static_cast<NodeId>(h), f);
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t h = 0; h < shards_.size(); ++h)
            forEachIn(static_cast<NodeId>(h), f);
    }

    /** Reset every slot to T{}, keeping the shard sizes. */
    void
    clear()
    {
        for (std::vector<T> &s : shards_)
            std::fill(s.begin(), s.end(), T{});
    }

  private:
    /** Grow @p s past index @p i; out of line, off the lookup path. */
    [[gnu::cold, gnu::noinline]] static void
    grow(std::vector<T> &s, std::size_t i)
    {
        s.resize(std::max(i + 1, 2 * s.size()));
    }

    AddrMap map_;
    std::vector<std::vector<T>> shards_;
};

} // namespace mspdsm

#endif // MSPDSM_PROTO_SHARD_TABLE_HH
