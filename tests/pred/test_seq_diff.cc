/** @file Differential test for the packed Cosmos/MSP engine.
 *
 * SeqPredictor stores each symbol as a 9-bit code, a block's history
 * in one word and each pattern entry in one word, six inline per
 * 64-byte record with a per-predictor overflow map. Before that it
 * ran on the generic BlockPattern (64-bit encoded symbols, hashed
 * HistoryKeys, four inline entries and a per-block spill map), which
 * VMSP still uses. This test keeps that engine as a reference and
 * drives both with the same random message streams -- every history
 * depth, node counts up to the cap, blocks of several homes, and
 * blocks with far more than six distinct histories -- asserting after
 * every message that the observation, the statistics, storage() and
 * prediction() agree exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "base/chunked_vector.hh"
#include "base/flat_map.hh"
#include "base/random.hh"
#include "pred/pattern_table.hh"
#include "pred/seq_predictor.hh"

using namespace mspdsm;

namespace
{

/** The BlockPattern-based Cosmos/MSP engine, as it was. */
class RefSeq final : public PredictorBase
{
  public:
    RefSeq(std::size_t depth, unsigned numProcs, unsigned alphabet,
           unsigned typeBits)
        : PredictorBase(depth, numProcs), alphabet_(alphabet),
          typeBits_(typeBits)
    {}

    const char *name() const override { return "RefSeq"; }

    Observation
    observe(BlockId blk, const PredMsg &msg) override
    {
        Observation obs;
        if (!(alphabet_ & SeqPredictor::kindBit(msg.kind)))
            return obs;
        obs.inAlphabet = true;
        BlockPattern &bp = blockState(blk);
        const BlockPattern::LearnResult r =
            bp.observeLearn(Symbol::of(msg.kind, msg.src));
        obs.predicted = r.hadPred;
        obs.correct = r.matched;
        if (r.inserted)
            ++pteTotal_;
        account(obs);
        return obs;
    }

    StorageReport
    storage() const override
    {
        StorageReport r;
        r.blocksAllocated = store_.size();
        r.pteTotal = pteTotal_;
        if (r.blocksAllocated == 0)
            return r;
        r.avgPte = static_cast<double>(r.pteTotal) /
                   static_cast<double>(r.blocksAllocated);
        const double he = typeBits_ + pidBits();
        const double d = static_cast<double>(depth_);
        r.avgBytesPerBlock = (d * he + r.avgPte * (d * he + he)) / 8.0;
        return r;
    }

    std::optional<Symbol>
    prediction(BlockId blk) const
    {
        auto it = index_.find(blk);
        if (it == index_.end())
            return std::nullopt;
        return it->second->lookup();
    }

    /** Most pattern-table entries of any one block. */
    std::size_t
    maxEntries() const
    {
        std::size_t m = 0;
        for (std::size_t i = 0; i < store_.size(); ++i)
            m = std::max(m, store_[i].entries());
        return m;
    }

  private:
    BlockPattern &
    blockState(BlockId blk)
    {
        auto [it, fresh] = index_.try_emplace(blk, nullptr);
        if (fresh)
            it->second = &store_.emplace_back(depth_);
        return *it->second;
    }

    const unsigned alphabet_;
    const unsigned typeBits_;
    FlatMap<BlockId, BlockPattern *> index_;
    ChunkedVector<BlockPattern> store_;
    std::uint64_t pteTotal_ = 0;
};

constexpr unsigned cosmosAlphabet =
    SeqPredictor::kindBit(SymKind::Read) |
    SeqPredictor::kindBit(SymKind::Write) |
    SeqPredictor::kindBit(SymKind::Upgrade) |
    SeqPredictor::kindBit(SymKind::InvAck) |
    SeqPredictor::kindBit(SymKind::WriteBack);

constexpr unsigned mspAlphabet = SeqPredictor::kindBit(SymKind::Read) |
                                 SeqPredictor::kindBit(SymKind::Write) |
                                 SeqPredictor::kindBit(SymKind::Upgrade);

void
expectSameStorage(const StorageReport &a, const StorageReport &b)
{
    EXPECT_EQ(a.blocksAllocated, b.blocksAllocated);
    EXPECT_EQ(a.pteTotal, b.pteTotal);
    EXPECT_EQ(a.avgPte, b.avgPte);
    EXPECT_EQ(a.avgBytesPerBlock, b.avgBytesPerBlock);
}

/**
 * Drive @p packed and @p ref with one stream over @p nodes nodes and
 * compare after every message. Each block repeats its own short
 * cyclic pattern (so predictions stand and are often right) with
 * random noise mixed in; "wild" blocks draw every message at random,
 * so they accumulate many more than six distinct histories and
 * exercise the overflow map.
 */
void
runStream(SeqPredictor &packed, RefSeq &ref, unsigned nodes,
          std::uint64_t seed)
{
    Rng rng(seed);
    const ProtoConfig geom = [&] {
        ProtoConfig c;
        c.numNodes = nodes;
        return c;
    }();
    const AddrMap map(geom);

    struct Stream
    {
        BlockId blk;
        std::vector<PredMsg> cycle;
        bool wild;
        std::size_t pos = 0;
    };
    auto randomMsg = [&] {
        const auto kind = static_cast<SymKind>(rng.uniform(0, 4));
        return PredMsg{kind, static_cast<NodeId>(rng.uniform(0, nodes - 1))};
    };
    std::vector<Stream> streams;
    for (unsigned b = 0; b < 24; ++b) {
        Stream s;
        // Blocks of several homes with overlapping local indices.
        s.blk = map.blockAt(static_cast<NodeId>(b % nodes),
                            rng.uniform(0, 300));
        s.wild = b % 4 == 0;
        const std::size_t len = rng.uniform(1, 6);
        for (std::size_t i = 0; i < len; ++i)
            s.cycle.push_back(randomMsg());
        streams.push_back(s);
    }

    for (int step = 0; step < 6000; ++step) {
        Stream &s = streams[rng.uniform(0, streams.size() - 1)];
        PredMsg msg;
        if (s.wild || rng.chance(0.1)) {
            msg = randomMsg();
        } else {
            msg = s.cycle[s.pos];
            s.pos = (s.pos + 1) % s.cycle.size();
        }
        const Observation a = packed.observe(s.blk, msg);
        const Observation b = ref.observe(s.blk, msg);
        ASSERT_EQ(a.inAlphabet, b.inAlphabet) << "step " << step;
        ASSERT_EQ(a.predicted, b.predicted) << "step " << step;
        ASSERT_EQ(a.correct, b.correct) << "step " << step;
        ASSERT_EQ(packed.stats().observed.value(),
                  ref.stats().observed.value());
        ASSERT_EQ(packed.stats().predicted.value(),
                  ref.stats().predicted.value());
        ASSERT_EQ(packed.stats().correct.value(),
                  ref.stats().correct.value());
        expectSameStorage(packed.storage(), ref.storage());
        ASSERT_EQ(packed.prediction(s.blk), ref.prediction(s.blk))
            << "step " << step;
    }
    // With three or more nodes a wild block can (and does) collect
    // more distinct histories than a record holds inline.
    if (nodes >= 3) {
        EXPECT_GT(ref.maxEntries(), 6u);
    }
}

} // namespace

TEST(SeqDiff, PackedCosmosMatchesReference)
{
    for (const std::size_t depth : {1u, 2u, 4u}) {
        for (const unsigned nodes : {1u, 2u, 3u, 16u, 32u, 61u}) {
            SCOPED_TRACE(testing::Message()
                         << "depth " << depth << " nodes " << nodes);
            ProtoConfig geom;
            geom.numNodes = nodes;
            Cosmos packed(depth, nodes, AddrMap(geom));
            RefSeq ref(depth, nodes, cosmosAlphabet, 3);
            runStream(packed, ref, nodes, 1000 * depth + nodes);
        }
    }
}

TEST(SeqDiff, PackedMspMatchesReference)
{
    for (const std::size_t depth : {1u, 2u, 4u}) {
        for (const unsigned nodes : {1u, 2u, 3u, 16u, 32u, 61u}) {
            SCOPED_TRACE(testing::Message()
                         << "depth " << depth << " nodes " << nodes);
            ProtoConfig geom;
            geom.numNodes = nodes;
            Msp packed(depth, nodes, AddrMap(geom));
            RefSeq ref(depth, nodes, mspAlphabet, 2);
            runStream(packed, ref, nodes, 7000 * depth + nodes);
        }
    }
}
