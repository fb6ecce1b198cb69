#include "pred/vmsp.hh"

namespace mspdsm
{

Vmsp::BlockState *
Vmsp::findState(BlockId blk)
{
    BlockState *const *st = index_.find(blk);
    return st ? *st : nullptr;
}

const Vmsp::BlockState *
Vmsp::findState(BlockId blk) const
{
    BlockState *const *st = index_.find(blk);
    return st ? *st : nullptr;
}

std::optional<Symbol>
Vmsp::prediction(BlockId blk) const
{
    const BlockState *st = findState(blk);
    if (!st)
        return std::nullopt;
    return st->pattern.lookup();
}

std::optional<NodeSet>
Vmsp::predictedReaders(BlockId blk) const
{
    auto pred = prediction(blk);
    if (!pred || pred->kind != SymKind::ReadVec || pred->vec.empty())
        return std::nullopt;
    return pred->vec;
}

NodeSet
Vmsp::openReaders(BlockId blk) const
{
    const BlockState *st = findState(blk);
    return st ? st->openVec : NodeSet{};
}

std::optional<HistoryKey>
Vmsp::predictionKey(BlockId blk) const
{
    const BlockState *st = findState(blk);
    if (!st || !st->pattern.warm())
        return std::nullopt;
    return st->pattern.key();
}

std::optional<HistoryKey>
Vmsp::lastWriteKey(BlockId blk) const
{
    const BlockState *st = findState(blk);
    if (!st || !st->lastWriteKeyValid)
        return std::nullopt;
    return st->lastWriteKey;
}

bool
Vmsp::isPremature(BlockId blk, const HistoryKey &k) const
{
    const BlockState *st = findState(blk);
    if (!st)
        return false;
    const PatternEntry *e = st->pattern.find(k);
    return e && e->premature;
}

void
Vmsp::setPremature(BlockId blk, const HistoryKey &k)
{
    BlockState *st = findState(blk);
    if (!st)
        return;
    if (PatternEntry *e = st->pattern.find(k))
        e->premature = true;
}

void
Vmsp::eraseEntry(BlockId blk, const HistoryKey &k)
{
    BlockState *st = findState(blk);
    if (st && st->pattern.erase(k))
        --pteTotal_;
}

StorageReport
Vmsp::storage() const
{
    StorageReport r;
    r.blocksAllocated = store_.size();
    r.pteTotal = pteTotal_;
    if (r.blocksAllocated == 0)
        return r;
    r.avgPte = static_cast<double>(r.pteTotal) /
               static_cast<double>(r.blocksAllocated);

    // Paper Section 7.3: a VMSP history entry is 2 type bits plus an
    // n-bit reader vector (18 bits at n=16). A pattern-table entry
    // holds at most one vector (a vector is always followed by a
    // write/upgrade), so at d=1 the key is 18 bits and the prediction
    // 2+log(n) bits: (18 + 24*pte)/8 bytes per block. For d>1 the key
    // holds one vector plus (d-1) write symbols.
    const double hv = 2.0 + numProcs_;
    const double wr = 2.0 + pidBits();
    const double d = static_cast<double>(depth_);
    const double keyBits = hv + (d - 1.0) * wr;
    const double bits = d * hv + r.avgPte * (keyBits + wr);
    r.avgBytesPerBlock = bits / 8.0;
    return r;
}

Vmsp::Snapshot
Vmsp::snapshot() const
{
    Snapshot s;
    s.blocks_.reserve(store_.size());
    index_.forEach([&](BlockId blk, const BlockState *st) {
        if (st)
            s.blocks_.emplace_back(blk, *st);
    });
    return s;
}

void
Vmsp::mergeFrom(const Snapshot &s)
{
    for (const auto &kv : s.blocks_) {
        BlockState *&st = index_[kv.first];
        if (st) {
            // Live state is fresher than any checkpoint: keep it.
            continue;
        }
        st = &store_.emplace_back(kv.second);
        pteTotal_ += kv.second.pattern.entries();
    }
}

void
Vmsp::reset()
{
    index_.clear();
    store_ = ChunkedVector<BlockState, 64>{};
    pteTotal_ = 0;
}

} // namespace mspdsm
