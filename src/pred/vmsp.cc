#include "pred/vmsp.hh"

namespace mspdsm
{

Vmsp::Vmsp(std::size_t depth, unsigned numProcs, const AddrMap &map)
    : PredictorBase(depth, numProcs),
      histMask_((std::uint64_t{1} << (codeBits * depth)) - 1),
      blocks_(map)
{
    panic_if(depth == 0 || depth > maxHistoryDepth,
             "history depth ", depth, " out of range");
}

std::uint64_t
Vmsp::vecCodeSlow(Record &r, BlockId blk, std::uint64_t raw)
{
    if (r.vecs > inlineVecs) {
        auto it = spill_.find(spillKey(Spill::VecIndex, blk, raw));
        if (it != spill_.end())
            return tagVec | it->second << tagBits;
    }
    // A wide history spells codes out in 32 bits.
    panic_if(r.vecs >= (1u << (32 - tagBits)), "block ", blk,
             " has more reader vectors than a code can name");
    const std::uint64_t idx = r.vecs++;
    if (idx < inlineVecs) {
        r.vec[idx] = raw;
    } else {
        spill_.try_emplace(spillKey(Spill::Vec, blk, idx), raw);
        spill_.try_emplace(spillKey(Spill::VecIndex, blk, raw), idx);
    }
    return tagVec | idx << tagBits;
}

void
Vmsp::insertEntry(Record &r, BlockId blk, std::uint64_t code)
{
    const Key key = r.history;
    std::uint64_t pred = code;
    if (code >= narrowCodes) [[unlikely]] {
        spill_[spillKey(Spill::Pred, blk, key)] = code;
        pred = tagWide;
    }
    const std::uint64_t word = key | pred << predShift;
    if (r.count < inlineEntries) {
        r.entry[r.count++] = word;
    } else {
        spill_.try_emplace(spillKey(Spill::Entry, blk, key), word);
        ++r.spilled;
    }
    ++pteTotal_;
}

void
Vmsp::replacePred(BlockId blk, std::uint64_t &entry, std::uint64_t code)
{
    const std::uint64_t old = predOf(blk, entry);
    const bool old_wide = old >= narrowCodes;
    const bool same_writer = (old & tagMask) < tagVec &&
                             (code & tagMask) < tagVec &&
                             old >> tagBits == code >> tagBits;
    const Key key = entry & historyMask;
    const bool wide = code >= narrowCodes;
    // Write the entry before touching the spill map: it may live
    // there, and an insert can move it.
    entry = key | (wide ? tagWide : code) << predShift |
            (same_writer ? entry & prematureBit : 0);
    if (wide)
        spill_[spillKey(Spill::Pred, blk, key)] = code;
    else if (old_wide)
        spill_.erase(spillKey(Spill::Pred, blk, key));
}

Vmsp::Key
Vmsp::pushWide(Record &r, BlockId blk, std::uint64_t code)
{
    // Spell the current history out, oldest first.
    WideHistory h{blk, r.fill, {}};
    if ((r.history & tagMask) == tagWide) {
        h = wideSeqs_.find({blk, r.history >> tagBits})->second;
    } else {
        for (unsigned i = 0; i < r.fill; ++i)
            h.code[i] = static_cast<std::uint32_t>(
                r.history >> codeBits * (r.fill - 1 - i) &
                (narrowCodes - 1));
    }
    if (h.len == depth_) {
        for (unsigned i = 1; i < h.len; ++i)
            h.code[i - 1] = h.code[i];
        h.code[h.len - 1] = static_cast<std::uint32_t>(code);
    } else {
        h.code[h.len++] = static_cast<std::uint32_t>(code);
    }

    bool narrow = true;
    Key packed = 0;
    for (unsigned i = 0; i < h.len; ++i) {
        narrow = narrow && h.code[i] < narrowCodes;
        packed = packed << codeBits | h.code[i];
    }
    if (narrow)
        return packed;
    auto [it, fresh] = wideIds_.try_emplace(h, r.wides);
    const std::uint64_t id = it->second;
    if (fresh) {
        ++r.wides;
        wideSeqs_.try_emplace(SpillKey{blk, id}, h);
    }
    return id << tagBits | tagWide;
}

std::optional<Symbol>
Vmsp::prediction(BlockId blk) const
{
    const Record *r = blocks_.find(blk);
    const std::uint64_t *e = r ? currentEntry(*r, blk) : nullptr;
    if (!e)
        return std::nullopt;
    const std::uint64_t pred = predOf(blk, *e);
    const std::uint64_t tag = pred & tagMask;
    if (tag == tagVec)
        return Symbol::readVec(vecAt(*r, blk, pred >> tagBits));
    return Symbol::of(tag == tagWrite ? SymKind::Write : SymKind::Upgrade,
                      static_cast<NodeId>(pred >> tagBits));
}

std::optional<NodeSet>
Vmsp::predictedReaders(BlockId blk) const
{
    const Record *r = blocks_.find(blk);
    const std::uint64_t *e = r ? currentEntry(*r, blk) : nullptr;
    if (!e)
        return std::nullopt;
    const std::uint64_t pred = predOf(blk, *e);
    if ((pred & tagMask) != tagVec)
        return std::nullopt;
    // Dictionary vectors are never empty: a vector is numbered when a
    // write closes a phase that had readers.
    return vecAt(*r, blk, pred >> tagBits);
}

NodeSet
Vmsp::openReaders(BlockId blk) const
{
    const Record *r = blocks_.find(blk);
    return r ? NodeSet::fromRaw(r->open) : NodeSet{};
}

std::optional<Vmsp::Key>
Vmsp::predictionKey(BlockId blk) const
{
    const Record *r = blocks_.find(blk);
    if (!r || r->fill != depth_)
        return std::nullopt;
    return r->history;
}

std::optional<Vmsp::Key>
Vmsp::lastWriteKey(BlockId blk) const
{
    const Record *r = blocks_.find(blk);
    if (!r || !r->lastWriteValid)
        return std::nullopt;
    return r->lastWrite;
}

bool
Vmsp::isPremature(BlockId blk, Key k) const
{
    const Record *r = blocks_.find(blk);
    const std::uint64_t *e = r ? findEntry(*r, blk, k) : nullptr;
    return e && (*e & prematureBit);
}

void
Vmsp::setPremature(BlockId blk, Key k)
{
    Record *r = blocks_.find(blk);
    if (std::uint64_t *e = r ? findEntry(*r, blk, k) : nullptr)
        *e |= prematureBit;
}

void
Vmsp::eraseEntry(BlockId blk, Key k)
{
    Record *r = blocks_.find(blk);
    std::uint64_t *e = r ? findEntry(*r, blk, k) : nullptr;
    if (!e)
        return;
    if ((*e >> predShift & (narrowCodes - 1)) == tagWide)
        spill_.erase(spillKey(Spill::Pred, blk, k));
    if (e >= r->entry && e < r->entry + r->count) {
        // Entries are unordered; fill the hole from the back.
        *e = r->entry[--r->count];
    } else {
        spill_.erase(spillKey(Spill::Entry, blk, k));
        --r->spilled;
    }
    --pteTotal_;
}

StorageReport
Vmsp::storage() const
{
    StorageReport r;
    r.blocksAllocated = blocksAllocated_;
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

void
Vmsp::reset()
{
    blocks_.clear();
    spill_.clear();
    wideIds_.clear();
    wideSeqs_.clear();
    pteTotal_ = 0;
    blocksAllocated_ = 0;
}

} // namespace mspdsm
