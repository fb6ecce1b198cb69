#include "pred/seq_predictor.hh"

namespace mspdsm
{

SeqPredictor::SeqPredictor(std::size_t depth, unsigned numProcs,
                           unsigned alphabet, const AddrMap &map)
    : PredictorBase(depth, numProcs), alphabet_(alphabet),
      histMask_((std::uint64_t{1} << (codeBits * depth)) - 1),
      blocks_(map)
{
    panic_if(depth == 0 || depth > maxHistoryDepth,
             "history depth ", depth, " out of range");
    fatal_if(numProcs > maxNodes, "predictor for ", numProcs,
             " processors; at most ", maxNodes, " supported");
}

void
SeqPredictor::insertEntry(Record &r, BlockId blk, std::uint64_t code)
{
    const std::uint64_t word = r.history | code << predShift;
    if (r.count < inlineN) {
        r.entry[r.count++] = word;
        return;
    }
    panic_if(blk >= overflowBlocks, "block ", blk,
             " beyond the pattern overflow key");
    overflow_.try_emplace(blk << predShift | r.history, word);
    r.spilled = true;
}

std::optional<Symbol>
SeqPredictor::prediction(BlockId blk) const
{
    const Record *r = blocks_.find(blk);
    if (!r || r->fill != depth_)
        return std::nullopt;
    const std::uint64_t *e = findEntry(*r, blk);
    if (!e)
        return std::nullopt;
    const std::uint64_t code = *e >> predShift;
    return Symbol::of(
        static_cast<SymKind>(code & ((1u << kindBits) - 1)),
        static_cast<NodeId>(code >> kindBits));
}

StorageReport
SeqPredictor::storage() const
{
    StorageReport r;
    r.blocksAllocated = blocksAllocated_;
    r.pteTotal = pteTotal_;
    if (r.blocksAllocated == 0)
        return r;
    r.avgPte = static_cast<double>(r.pteTotal) /
               static_cast<double>(r.blocksAllocated);

    // Paper Section 7.3: a history entry is (type + pid) bits; a
    // pattern-table entry stores a depth-long key plus the predicted
    // symbol. For d=1 this yields Cosmos (7 + 14*pte)/8 and
    // MSP (6 + 12*pte)/8 bytes per block.
    const double he = historyEntryBits();
    const double d = static_cast<double>(depth_);
    const double bits = d * he + r.avgPte * (d * he + he);
    r.avgBytesPerBlock = bits / 8.0;
    return r;
}

} // namespace mspdsm
