/** @file Unit tests for the Vector Memory Sharing Predictor. */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "pred/seq_predictor.hh"
#include "pred/vmsp.hh"

using namespace mspdsm;

namespace
{

PredMsg
rd(NodeId p)
{
    return PredMsg{SymKind::Read, p};
}

PredMsg
wr(NodeId p)
{
    return PredMsg{SymKind::Write, p};
}

PredMsg
up(NodeId p)
{
    return PredMsg{SymKind::Upgrade, p};
}

NodeSet
set(std::initializer_list<NodeId> ids)
{
    NodeSet s;
    for (NodeId i : ids)
        s.add(i);
    return s;
}

} // namespace

TEST(Vmsp, IgnoresAcknowledgements)
{
    Vmsp v(1, 16);
    EXPECT_FALSE(v.observe(1, PredMsg{SymKind::InvAck, 2}).inAlphabet);
    EXPECT_FALSE(
        v.observe(1, PredMsg{SymKind::WriteBack, 2}).inAlphabet);
}

TEST(Vmsp, FoldsReadsIntoOneVector)
{
    Vmsp v(1, 16);
    v.observe(7, wr(0));
    v.observe(7, rd(1));
    v.observe(7, rd(2));
    EXPECT_EQ(v.openReaders(7), set({1, 2}));
    v.observe(7, wr(0)); // closes the vector
    EXPECT_TRUE(v.openReaders(7).empty());
    // One entry for W0 -> Rv{1,2}; none yet for the reads
    // themselves: exactly the paper's Figure 4 compression.
    EXPECT_EQ(v.storage().pteTotal, 2u); // W->Rv and Rv->W
}

TEST(Vmsp, PredictsReaderVector)
{
    Vmsp v(1, 16);
    for (int i = 0; i < 3; ++i) {
        v.observe(7, wr(0));
        v.observe(7, rd(1));
        v.observe(7, rd(2));
    }
    v.observe(7, wr(0));
    auto readers = v.predictedReaders(7);
    ASSERT_TRUE(readers.has_value());
    EXPECT_EQ(*readers, set({1, 2}));
}

TEST(Vmsp, ImmuneToReadReordering)
{
    Vmsp v(1, 16);
    for (int i = 0; i < 100; ++i) {
        v.observe(7, up(0));
        v.observe(7, rd(i % 2 ? 1 : 2));
        v.observe(7, rd(i % 2 ? 2 : 1));
    }
    // The vector encoding removes the order: near-perfect accuracy.
    EXPECT_GT(v.stats().accuracyPct(), 97.0);
}

TEST(Vmsp, ReadOutsidePredictedVectorIsIncorrect)
{
    Vmsp v(1, 16);
    for (int i = 0; i < 3; ++i) {
        v.observe(7, wr(0));
        v.observe(7, rd(1));
    }
    v.observe(7, wr(0));
    const Observation good = v.observe(7, rd(1));
    EXPECT_TRUE(good.predicted);
    EXPECT_TRUE(good.correct);
    const Observation bad = v.observe(7, rd(5));
    EXPECT_TRUE(bad.predicted);
    EXPECT_FALSE(bad.correct);
}

TEST(Vmsp, WritePredictionAfterVectorCloses)
{
    Vmsp v(1, 16);
    for (int i = 0; i < 3; ++i) {
        v.observe(7, wr(0));
        v.observe(7, rd(1));
        v.observe(7, rd(2));
    }
    const Observation o = v.observe(7, wr(0));
    EXPECT_TRUE(o.predicted);
    EXPECT_TRUE(o.correct);
}

TEST(Vmsp, MigratorySharingIsPredictable)
{
    Vmsp v(1, 16);
    for (int i = 0; i < 90; ++i) {
        const NodeId q = NodeId(i % 3);
        v.observe(7, rd(q));
        v.observe(7, up(q));
    }
    EXPECT_GT(v.stats().accuracyPct(), 95.0);
}

TEST(Vmsp, StreamStartingWithReadsWorks)
{
    Vmsp v(1, 16);
    EXPECT_FALSE(v.observe(7, rd(1)).predicted);
    EXPECT_FALSE(v.observe(7, rd(2)).predicted);
    const Observation o = v.observe(7, wr(0));
    EXPECT_FALSE(o.predicted); // history was empty before the vector
    EXPECT_EQ(v.stats().observed.value(), 3u);
}

TEST(Vmsp, LastWriteKeyTracksTheWriteEntry)
{
    Vmsp v(1, 16);
    v.observe(7, wr(0));
    v.observe(7, rd(1));
    v.observe(7, wr(0));
    auto k = v.lastWriteKey(7);
    ASSERT_TRUE(k.has_value());
    EXPECT_FALSE(v.isPremature(7, *k));
    v.setPremature(7, *k);
    EXPECT_TRUE(v.isPremature(7, *k));
}

TEST(Vmsp, PrematureBitClearsWhenPredictionChanges)
{
    Vmsp v(1, 16);
    v.observe(7, wr(0));
    v.observe(7, rd(1));
    v.observe(7, wr(0)); // entry Rv{1} -> W0
    auto k = v.lastWriteKey(7);
    ASSERT_TRUE(k.has_value());
    v.setPremature(7, *k);
    // The same history now leads to a different write: the premature
    // bit must not survive the replacement.
    v.observe(7, rd(1));
    v.observe(7, wr(3));
    EXPECT_FALSE(v.isPremature(7, *k));
}

TEST(Vmsp, EraseEntryRemovesPrediction)
{
    Vmsp v(1, 16);
    for (int i = 0; i < 3; ++i) {
        v.observe(7, wr(0));
        v.observe(7, rd(1));
    }
    v.observe(7, wr(0));
    auto key = v.predictionKey(7);
    ASSERT_TRUE(key.has_value());
    ASSERT_TRUE(v.predictedReaders(7).has_value());
    v.eraseEntry(7, *key);
    EXPECT_FALSE(v.predictedReaders(7).has_value());
}

TEST(Vmsp, StorageFollowsPaperFormula)
{
    Vmsp v(1, 16);
    v.observe(7, wr(0));
    v.observe(7, rd(1));
    v.observe(7, rd(2));
    v.observe(7, wr(0));
    const StorageReport r = v.storage();
    EXPECT_EQ(r.blocksAllocated, 1u);
    EXPECT_EQ(r.pteTotal, 2u);
    // Paper: VMSP at n=16, d=1 costs (18 + 24*pte)/8 bytes.
    EXPECT_DOUBLE_EQ(r.avgBytesPerBlock, (18.0 + 24.0 * 2.0) / 8.0);
}

TEST(Vmsp, FewerEntriesThanMspUnderWideSharing)
{
    // At depth 2 the re-ordering permutations multiply MSP's keys
    // (pairs of adjacent reads), while VMSP still folds each phase
    // into one vector (Table 4's deep-history blow-up).
    Vmsp v(2, 16);
    Msp m(2, 16);
    Rng rng(3);
    std::vector<NodeId> readers{1, 2, 3, 4, 5, 6};
    for (int i = 0; i < 40; ++i) {
        v.observe(7, wr(0));
        m.observe(7, wr(0));
        rng.shuffle(readers);
        for (NodeId r : readers) {
            v.observe(7, rd(r));
            m.observe(7, rd(r));
        }
    }
    EXPECT_LT(v.storage().pteTotal, m.storage().pteTotal / 3);
}

TEST(Vmsp, DepthTwoCapturesAlternatingVectors)
{
    // appbt-style: the reader vector alternates {1,8} / {2,8} with
    // the elimination dimension. Depth 1 caps out; depth 2 learns
    // both patterns.
    Vmsp d1(1, 16), d2(2, 16);
    for (int i = 0; i < 200; ++i) {
        const NodeId c = i % 2 ? 1 : 2;
        for (Vmsp *v : {&d1, &d2}) {
            v->observe(7, up(0));
            v->observe(7, rd(c));
            v->observe(7, rd(8));
        }
    }
    EXPECT_LT(d1.stats().accuracyPct(), 75.0);
    EXPECT_GT(d2.stats().accuracyPct(), 95.0);
}

// Property sweep over reader-set sizes: accuracy is independent of
// arrival order for any set size.
class VmspFolding : public ::testing::TestWithParam<int>
{
};

TEST_P(VmspFolding, OrderInsensitiveForAnyDegree)
{
    const int degree = GetParam();
    Vmsp v(1, 16);
    Rng rng(17);
    std::vector<NodeId> readers;
    for (int r = 0; r < degree; ++r)
        readers.push_back(NodeId(1 + r));
    for (int i = 0; i < 60; ++i) {
        v.observe(9, wr(0));
        rng.shuffle(readers);
        for (NodeId r : readers)
            v.observe(9, rd(r));
    }
    EXPECT_GT(v.stats().accuracyPct(), 95.0);
    // Exactly two pattern entries regardless of degree.
    EXPECT_EQ(v.storage().pteTotal, 2u);
}

INSTANTIATE_TEST_SUITE_P(Degrees, VmspFolding,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 15));

/**
 * A VMSP on an interim host sees blocks of its own home and of the
 * adopted one, with overlapping local indices. Each block must learn
 * exactly as it would alone.
 */
TEST(Vmsp, InterimHostKeepsBlocksOfTwoHomesApart)
{
    ProtoConfig cfg;
    cfg.numNodes = 4;
    const AddrMap map(cfg);
    const BlockId own = map.blockAt(0, 5);
    const BlockId adopted = map.blockAt(1, 5);

    Vmsp both(1, 4, map), ownOnly(1, 4, map), adoptedOnly(1, 4, map);
    const std::vector<PredMsg> ownStream = {wr(0), rd(1), rd(2),
                                            wr(0), rd(1), rd(2)};
    const std::vector<PredMsg> adoptedStream = {up(3), rd(0), wr(3),
                                                rd(0), rd(2), wr(3)};
    for (std::size_t i = 0; i < ownStream.size(); ++i) {
        both.observe(own, ownStream[i]);
        ownOnly.observe(own, ownStream[i]);
        both.observe(adopted, adoptedStream[i]);
        adoptedOnly.observe(adopted, adoptedStream[i]);
        EXPECT_EQ(both.prediction(own), ownOnly.prediction(own)) << i;
        EXPECT_EQ(both.prediction(adopted),
                  adoptedOnly.prediction(adopted))
            << i;
        EXPECT_EQ(both.openReaders(own), ownOnly.openReaders(own));
        EXPECT_EQ(both.openReaders(adopted),
                  adoptedOnly.openReaders(adopted));
    }
    EXPECT_EQ(both.predictedReaders(own), set({1, 2}));
    EXPECT_EQ(both.storage().blocksAllocated, 2u);
    EXPECT_EQ(both.storage().pteTotal,
              ownOnly.storage().pteTotal +
                  adoptedOnly.storage().pteTotal);
}
