/** @file Differential tests for the packed predictor engines.
 *
 * Cosmos/MSP (SeqPredictor) and VMSP store each symbol as a small
 * code, a block's history in one word and each pattern entry in one
 * word, a few inline per block record with per-predictor spill maps.
 * VMSP names its reader vectors through a per-block dictionary. Before
 * that all three ran on a generic pattern table with 64-bit encoded
 * symbols and hashed histories; tests/pred/ref_pattern.hh keeps that
 * engine as a reference, and RefSeq / RefVmsp below are the predictors
 * as they were on it. The tests drive both sides with the same random
 * message streams -- every history depth, node counts up to the cap,
 * blocks of several homes, blocks with more distinct histories than a
 * record holds inline and, for VMSP, blocks with more reader vectors
 * than the record's dictionary and than a code can name -- and assert
 * after every message that the two agree exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "base/flat_map.hh"
#include "base/random.hh"
#include "pred/ref_pattern.hh"
#include "pred/seq_predictor.hh"
#include "pred/vmsp.hh"

using namespace mspdsm;

namespace
{

/** The reference-engine Cosmos/MSP, as it was. */
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
        ref::BlockPattern &bp = blockState(blk);
        const ref::BlockPattern::LearnResult r =
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
    ref::BlockPattern &
    blockState(BlockId blk)
    {
        auto [it, fresh] = index_.try_emplace(blk, nullptr);
        if (fresh)
            it->second = &store_.emplace_back(depth_);
        return *it->second;
    }

    const unsigned alphabet_;
    const unsigned typeBits_;
    FlatMap<BlockId, ref::BlockPattern *> index_;
    std::deque<ref::BlockPattern> store_;
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

/** VMSP on the reference engine, as it was. */
class RefVmsp final : public PredictorBase
{
  public:
    RefVmsp(std::size_t depth, unsigned numProcs)
        : PredictorBase(depth, numProcs)
    {}

    const char *name() const override { return "RefVmsp"; }

    Observation
    observe(BlockId blk, const PredMsg &msg) override
    {
        Observation obs;
        const bool is_read = msg.kind == SymKind::Read;
        const bool is_write = ref::BlockPattern::isWriteKind(msg.kind);
        if (!is_read && !is_write)
            return obs;
        obs.inAlphabet = true;
        BlockState &st = blocks_.try_emplace(blk, depth_).first->second;

        if (is_read) {
            if (auto pred = st.pattern.lookup()) {
                obs.predicted = true;
                obs.correct = pred->kind == SymKind::ReadVec &&
                              pred->vec.contains(msg.src);
            }
            st.openVec.add(msg.src);
            st.openActive = true;
            account(obs);
            return obs;
        }

        if (st.openActive) {
            st.vectors.insert(st.openVec.raw());
            if (st.pattern.observeLearn(Symbol::readVec(st.openVec))
                    .inserted)
                ++pteTotal_;
            st.openVec.clear();
            st.openActive = false;
        }
        st.lastWriteKeyValid = st.pattern.warm();
        st.lastWriteKey = st.pattern.key();
        const ref::BlockPattern::LearnResult r =
            st.pattern.observeLearn(Symbol::of(msg.kind, msg.src));
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
        r.blocksAllocated = blocks_.size();
        r.pteTotal = pteTotal_;
        if (r.blocksAllocated == 0)
            return r;
        r.avgPte = static_cast<double>(r.pteTotal) /
                   static_cast<double>(r.blocksAllocated);
        const double hv = 2.0 + numProcs_;
        const double wr = 2.0 + pidBits();
        const double d = static_cast<double>(depth_);
        const double keyBits = hv + (d - 1.0) * wr;
        r.avgBytesPerBlock = (d * hv + r.avgPte * (keyBits + wr)) / 8.0;
        return r;
    }

    std::optional<Symbol>
    prediction(BlockId blk) const
    {
        const BlockState *st = find(blk);
        return st ? st->pattern.lookup() : std::nullopt;
    }

    std::optional<NodeSet>
    predictedReaders(BlockId blk) const
    {
        auto pred = prediction(blk);
        if (!pred || pred->kind != SymKind::ReadVec || pred->vec.empty())
            return std::nullopt;
        return pred->vec;
    }

    NodeSet
    openReaders(BlockId blk) const
    {
        const BlockState *st = find(blk);
        return st ? st->openVec : NodeSet{};
    }

    std::optional<ref::HistoryKey>
    predictionKey(BlockId blk) const
    {
        const BlockState *st = find(blk);
        if (!st || !st->pattern.warm())
            return std::nullopt;
        return st->pattern.key();
    }

    std::optional<ref::HistoryKey>
    lastWriteKey(BlockId blk) const
    {
        const BlockState *st = find(blk);
        if (!st || !st->lastWriteKeyValid)
            return std::nullopt;
        return st->lastWriteKey;
    }

    bool
    isPremature(BlockId blk, const ref::HistoryKey &k) const
    {
        const BlockState *st = find(blk);
        const ref::PatternEntry *e = st ? st->pattern.find(k) : nullptr;
        return e && e->premature;
    }

    void
    setPremature(BlockId blk, const ref::HistoryKey &k)
    {
        auto it = blocks_.find(blk);
        if (it == blocks_.end())
            return;
        if (ref::PatternEntry *e = it->second.pattern.find(k))
            e->premature = true;
    }

    void
    eraseEntry(BlockId blk, const ref::HistoryKey &k)
    {
        auto it = blocks_.find(blk);
        if (it != blocks_.end() && it->second.pattern.erase(k))
            --pteTotal_;
    }

    struct BlockState
    {
        explicit BlockState(std::size_t depth) : pattern(depth) {}

        ref::BlockPattern pattern;
        NodeSet openVec;
        bool openActive = false;
        ref::HistoryKey lastWriteKey;
        bool lastWriteKeyValid = false;
        std::set<std::uint64_t> vectors; //!< distinct closed vectors
    };

    void
    reset() override
    {
        blocks_.clear();
        pteTotal_ = 0;
    }

    /** Most pattern entries of any one block. */
    std::size_t
    maxEntries() const
    {
        std::size_t m = 0;
        for (const auto &kv : blocks_)
            m = std::max(m, kv.second.pattern.entries());
        return m;
    }

    /** Most distinct reader vectors of any one block. */
    std::size_t
    maxVectors() const
    {
        std::size_t m = 0;
        for (const auto &kv : blocks_)
            m = std::max(m, kv.second.vectors.size());
        return m;
    }

  private:
    const BlockState *
    find(BlockId blk) const
    {
        auto it = blocks_.find(blk);
        return it == blocks_.end() ? nullptr : &it->second;
    }

    std::map<BlockId, BlockState> blocks_;
    std::uint64_t pteTotal_ = 0;
};

/** A key pair held across messages, as the directory holds one. */
struct HeldKey
{
    std::optional<Vmsp::Key> packed;
    std::optional<ref::HistoryKey> ref;
};

/** Everything a caller can see of one block, on both sides. */
void
expectSameBlock(const Vmsp &packed, const RefVmsp &ref, BlockId blk,
                const HeldKey &held)
{
    ASSERT_EQ(packed.prediction(blk), ref.prediction(blk));
    ASSERT_EQ(packed.predictedReaders(blk), ref.predictedReaders(blk));
    ASSERT_EQ(packed.openReaders(blk), ref.openReaders(blk));
    ASSERT_EQ(packed.predictionKey(blk).has_value(),
              ref.predictionKey(blk).has_value());
    const auto pw = packed.lastWriteKey(blk);
    const auto rw = ref.lastWriteKey(blk);
    ASSERT_EQ(pw.has_value(), rw.has_value());
    if (pw) {
        ASSERT_EQ(packed.isPremature(blk, *pw), ref.isPremature(blk, *rw));
    }
    ASSERT_EQ(held.packed.has_value(), held.ref.has_value());
    if (held.packed) {
        ASSERT_EQ(packed.isPremature(blk, *held.packed),
                  ref.isPremature(blk, *held.ref));
    }
}

/**
 * Drive @p packed and @p ref with one stream over @p nodes nodes and
 * compare after every message. Blocks repeat short cyclic patterns
 * with noise; "wild" blocks draw every message at random (many
 * histories and, past a few nodes, more vectors than the record
 * holds); with 11 or more nodes one "buster" block runs read phases
 * over ever new vectors, revisiting old ones now and then, until it
 * holds more than 1100 -- past what a 12-bit code can index.
 * Along the way the directory's calls are made on each side with its
 * own keys, held across messages: setPremature, isPremature and
 * eraseEntry. Just past two thirds of the way in both sides reset
 * (a cold restart), and 100 messages later, once some blocks have
 * relearned, every stream is compared again.
 */
void
runVmspStream(std::size_t depth, unsigned nodes, std::uint64_t seed)
{
    Rng rng(seed);
    ProtoConfig geom;
    geom.numNodes = nodes;
    const AddrMap map(geom);
    Vmsp packed(depth, nodes, map);
    RefVmsp ref(depth, nodes);

    auto randomMsg = [&] {
        static constexpr SymKind kinds[] = {
            SymKind::Read,  SymKind::Read,    SymKind::Read,
            SymKind::Read,  SymKind::Write,   SymKind::Write,
            SymKind::Upgrade, SymKind::InvAck, SymKind::WriteBack};
        return PredMsg{kinds[rng.uniform(0, 8)],
                       static_cast<NodeId>(rng.uniform(0, nodes - 1))};
    };

    enum class Shape { Cyclic, Wild, Buster };
    struct Stream
    {
        BlockId blk;
        Shape shape;
        std::vector<PredMsg> cycle; //!< pattern, or pending phase
        std::size_t pos = 0;
        HeldKey held;
    };
    const bool bust = nodes >= 11;
    std::vector<Stream> streams;
    for (unsigned b = 0; b < 16; ++b) {
        Stream s;
        s.blk = map.blockAt(static_cast<NodeId>(b % nodes),
                            rng.uniform(0, 300));
        s.shape = b == 1 && bust ? Shape::Buster
                  : b % 4 == 0   ? Shape::Wild
                                 : Shape::Cyclic;
        if (s.shape == Shape::Cyclic) {
            const std::size_t len = rng.uniform(1, 8);
            for (std::size_t i = 0; i < len; ++i)
                s.cycle.push_back(randomMsg());
        }
        streams.push_back(s);
    }

    // The buster's vectors: the bits of a counter, one node a bit.
    std::uint64_t named = 0;
    auto busterPhase = [&](Stream &s) {
        const std::uint64_t v =
            named > 0 && rng.chance(0.1) ? rng.uniform(1, named) : ++named;
        s.cycle.clear();
        for (NodeId n = 0; n < 11; ++n)
            if (v >> n & 1)
                s.cycle.push_back(PredMsg{SymKind::Read, n});
        rng.shuffle(s.cycle);
        s.cycle.push_back(PredMsg{rng.chance(0.8) ? SymKind::Write
                                                  : SymKind::Upgrade,
                                  static_cast<NodeId>(rng.uniform(0, 2))});
        s.pos = 0;
    };

    auto compareAll = [&] {
        for (const Stream &s : streams)
            expectSameBlock(packed, ref, s.blk, s.held);
        expectSameStorage(packed.storage(), ref.storage());
    };

    const int total = bust ? 20000 : 6000;
    std::size_t peakVectors = 0; // most vectors one block had named
    for (int step = 0; step < total; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        Stream &s = bust && rng.chance(0.7)
                        ? streams[1]
                        : streams[rng.uniform(0, streams.size() - 1)];
        PredMsg msg;
        if (s.shape == Shape::Wild || rng.chance(0.05)) {
            msg = randomMsg();
        } else {
            if (s.shape == Shape::Buster && s.pos == s.cycle.size())
                busterPhase(s);
            msg = s.cycle[s.pos++];
            if (s.shape == Shape::Cyclic)
                s.pos %= s.cycle.size();
        }
        const Observation a = packed.observe(s.blk, msg);
        const Observation b = ref.observe(s.blk, msg);
        ASSERT_EQ(a.inAlphabet, b.inAlphabet);
        ASSERT_EQ(a.predicted, b.predicted);
        ASSERT_EQ(a.correct, b.correct);
        ASSERT_EQ(packed.stats().observed.value(),
                  ref.stats().observed.value());
        ASSERT_EQ(packed.stats().predicted.value(),
                  ref.stats().predicted.value());
        ASSERT_EQ(packed.stats().correct.value(),
                  ref.stats().correct.value());

        if (rng.chance(0.1)) {
            // The directory's bookkeeping calls, each side with its
            // own key.
            switch (rng.uniform(0, 4)) {
              case 0:
                s.held = {packed.lastWriteKey(s.blk),
                          ref.lastWriteKey(s.blk)};
                break;
              case 1:
                s.held = {packed.predictionKey(s.blk),
                          ref.predictionKey(s.blk)};
                break;
              case 2:
                if (s.held.packed && s.held.ref) {
                    packed.setPremature(s.blk, *s.held.packed);
                    ref.setPremature(s.blk, *s.held.ref);
                }
                break;
              case 3:
                if (s.held.packed && s.held.ref) {
                    packed.eraseEntry(s.blk, *s.held.packed);
                    ref.eraseEntry(s.blk, *s.held.ref);
                }
                break;
              default: {
                const auto pk = packed.lastWriteKey(s.blk);
                const auto rk = ref.lastWriteKey(s.blk);
                if (pk && rk) {
                    packed.setPremature(s.blk, *pk);
                    ref.setPremature(s.blk, *rk);
                }
              }
            }
        }
        expectSameStorage(packed.storage(), ref.storage());
        expectSameBlock(packed, ref, s.blk, s.held);
        if (testing::Test::HasFatalFailure())
            return;

        if (step == 2 * total / 3 + 300) {
            // Keys name histories only until the state they came
            // from is dropped.
            peakVectors = ref.maxVectors();
            packed.reset();
            ref.reset();
            expectSameStorage(packed.storage(), ref.storage());
            for (Stream &t : streams)
                t.held = {};
        } else if (step == 2 * total / 3 + 400) {
            // Relearned from cold, both sides still agree.
            compareAll();
        }
    }
    compareAll();

    // The streams reached the paths they are meant to cover.
    peakVectors = std::max(peakVectors, ref.maxVectors());
    if (nodes >= 3) {
        EXPECT_GT(ref.maxEntries(), 5u) << "no block spilled entries";
    }
    if (nodes >= 7) {
        EXPECT_GT(peakVectors, 6u) << "no block spilled vectors";
    }
    if (bust) {
        EXPECT_GT(peakVectors, 1100u) << "no block outgrew a 12-bit code";
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

TEST(SeqDiff, PackedVmspMatchesReference)
{
    for (const std::size_t depth : {1u, 2u, 4u}) {
        for (const unsigned nodes : {1u, 2u, 3u, 7u, 16u, 32u, 61u}) {
            SCOPED_TRACE(testing::Message()
                         << "depth " << depth << " nodes " << nodes);
            runVmspStream(depth, nodes, 5000 * depth + nodes);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}
