/** @file Unit tests for Symbol and for the one-word history keys VMSP
 * hands the directory (predictionKey / lastWriteKey). */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "pred/seq_predictor.hh"
#include "pred/vmsp.hh"

using namespace mspdsm;

namespace
{

void
feed(Vmsp &v, BlockId blk, SymKind k, NodeId p)
{
    v.observe(blk, PredMsg{k, p});
}

/** Close a read phase of @p readers (in order) with a write by 0. */
void
phase(Vmsp &v, BlockId blk, std::initializer_list<NodeId> readers)
{
    for (NodeId r : readers)
        feed(v, blk, SymKind::Read, r);
    feed(v, blk, SymKind::Write, 0);
}

} // namespace

TEST(Symbol, EqualityByKindAndPid)
{
    EXPECT_EQ(Symbol::of(SymKind::Read, 3), Symbol::of(SymKind::Read, 3));
    EXPECT_FALSE(Symbol::of(SymKind::Read, 3) ==
                 Symbol::of(SymKind::Read, 4));
    EXPECT_FALSE(Symbol::of(SymKind::Read, 3) ==
                 Symbol::of(SymKind::Write, 3));
}

TEST(Symbol, VectorEqualityBySet)
{
    NodeSet a;
    a.add(1);
    a.add(2);
    NodeSet b;
    b.add(2);
    b.add(1);
    EXPECT_EQ(Symbol::readVec(a), Symbol::readVec(b));
    b.add(3);
    EXPECT_FALSE(Symbol::readVec(a) == Symbol::readVec(b));
}

TEST(Symbol, ToStringIsReadable)
{
    EXPECT_EQ(Symbol::of(SymKind::Read, 3).toString(), "<Read,P3>");
    NodeSet v;
    v.add(1);
    v.add(2);
    EXPECT_EQ(Symbol::readVec(v).toString(), "<ReadVec,{1,2}>");
}

TEST(HistoryKey, NoKeyUntilTheHistoryIsFull)
{
    Vmsp v(2, 16);
    EXPECT_FALSE(v.predictionKey(7).has_value());
    feed(v, 7, SymKind::Write, 1);
    EXPECT_FALSE(v.predictionKey(7).has_value());
    feed(v, 7, SymKind::Write, 2);
    EXPECT_TRUE(v.predictionKey(7).has_value());
}

TEST(HistoryKey, DistinguishesKinds)
{
    Vmsp w(1, 16), u(1, 16), r(1, 16);
    feed(w, 7, SymKind::Write, 5);
    feed(u, 7, SymKind::Upgrade, 5);
    phase(r, 7, {5}); // the history before the write is {5}
    const std::set<Vmsp::Key> keys{
        *w.predictionKey(7), *u.predictionKey(7), *r.lastWriteKey(7)};
    EXPECT_EQ(keys.size(), 3u);
}

TEST(HistoryKey, IsOrderSensitive)
{
    Vmsp a(2, 16), b(2, 16);
    feed(a, 7, SymKind::Write, 1);
    feed(a, 7, SymKind::Write, 2);
    feed(b, 7, SymKind::Write, 2);
    feed(b, 7, SymKind::Write, 1);
    EXPECT_NE(*a.predictionKey(7), *b.predictionKey(7));
}

TEST(HistoryKey, EqualContentsEqualKeys)
{
    // The same history reached again, in one block or another
    // predictor fed the same stream, has the same key.
    Vmsp a(3, 16), b(3, 16);
    for (NodeId p : {1, 5, 9}) {
        feed(a, 7, SymKind::Write, p);
        feed(b, 7, SymKind::Write, p);
    }
    EXPECT_EQ(a.predictionKey(7), b.predictionKey(7));
    const Vmsp::Key k = *a.predictionKey(7);
    for (NodeId p : {3, 1, 5, 9})
        feed(a, 7, SymKind::Write, p);
    EXPECT_EQ(*a.predictionKey(7), k);
}

TEST(HistoryKey, ReaderVectorIsOrderFree)
{
    Vmsp v(1, 16);
    phase(v, 7, {1, 2, 3});
    const Vmsp::Key k = *v.lastWriteKey(7);
    phase(v, 7, {1, 2});
    EXPECT_NE(*v.lastWriteKey(7), k);
    phase(v, 7, {3, 1, 2});
    EXPECT_EQ(*v.lastWriteKey(7), k);
}

TEST(HistoryKey, StaysExactPastTheDictionaryIndexRange)
{
    // 1100 distinct reader vectors in one block, more than a 12-bit
    // code can name: vector i is the set of bits of i. Every history
    // [W0, vector i] keeps its own key, and reaching it again finds
    // the key it had before, narrow (i = 3) or wide (i = 1050).
    Vmsp v(2, 16);
    auto vectorPhase = [&](unsigned i) {
        for (NodeId n = 0; n < 11; ++n)
            if (i >> n & 1)
                feed(v, 7, SymKind::Read, n);
        feed(v, 7, SymKind::Write, 0);
    };
    std::vector<Vmsp::Key> keyOf(1101);
    std::set<Vmsp::Key> keys;
    for (unsigned i = 1; i <= 1100; ++i) {
        vectorPhase(i);
        if (i == 1) // the first phase has no full history yet
            continue;
        keyOf[i] = *v.lastWriteKey(7);
        keys.insert(keyOf[i]);
    }
    EXPECT_EQ(keys.size(), 1099u);
    vectorPhase(3);
    EXPECT_EQ(*v.lastWriteKey(7), keyOf[3]);
    vectorPhase(1050);
    EXPECT_EQ(*v.lastWriteKey(7), keyOf[1050]);
}

TEST(HistoryDeathTest, DepthZeroPanics)
{
    EXPECT_DEATH(Vmsp v(0, 16), "depth");
    EXPECT_DEATH(Msp m(0, 16), "depth");
}

TEST(HistoryDeathTest, DepthBeyondMaxPanics)
{
    EXPECT_DEATH(Vmsp v(maxHistoryDepth + 1, 16), "depth");
    EXPECT_DEATH(Cosmos c(maxHistoryDepth + 1, 16), "depth");
}
