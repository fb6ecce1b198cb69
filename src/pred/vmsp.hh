/**
 * @file
 * VMSP: the Vector Memory Sharing Predictor (paper Section 3.1).
 *
 * VMSP folds every run of read requests between two writes into a
 * single <Read, vector> symbol, exactly as a full-map directory folds
 * its sharer list. This removes read re-ordering from the pattern
 * tables. Writes and upgrades remain individual <type, pid> symbols.
 *
 * Per-message accounting (so that accuracy is comparable with Cosmos
 * and MSP at message granularity):
 *  - an incoming read is predicted iff an entry exists for the current
 *    history; it is correct iff that entry is a read vector containing
 *    the reader;
 *  - an incoming write/upgrade first closes any open read vector
 *    (learning it as the successor of the pre-phase history), then is
 *    checked against the prediction for the updated history.
 *
 * VMSP additionally exposes the hooks the speculation engine needs:
 * the current predicted reader vector, history-key snapshots for
 * premature-invalidation bits, and entry removal on verified
 * misspeculation (paper Section 4.2).
 */

#ifndef MSPDSM_PRED_VMSP_HH
#define MSPDSM_PRED_VMSP_HH

#include <optional>
#include <utility>
#include <vector>

#include "base/chunked_vector.hh"
#include "pred/pattern_table.hh"
#include "pred/predictor.hh"
#include "proto/shard_table.hh"

namespace mspdsm
{

/**
 * Vector Memory Sharing Predictor.
 */
class Vmsp final : public PredictorBase
{
  public:
    /** @param map block geometry its block index is laid out by */
    Vmsp(std::size_t depth, unsigned numProcs,
         const AddrMap &map = AddrMap(ProtoConfig{}))
        : PredictorBase(depth, numProcs), index_(map)
    {}

    const char *name() const override { return "VMSP"; }

    /**
     * Defined inline: per-message hot path (see SeqPredictor::observe).
     */
    Observation
    observe(BlockId blk, const PredMsg &msg) override
    {
        Observation obs;
        const bool is_read = msg.kind == SymKind::Read;
        const bool is_write = msg.kind == SymKind::Write ||
                              msg.kind == SymKind::Upgrade;
        if (!is_read && !is_write)
            return obs; // acknowledgements are not in VMSP's alphabet
        obs.inAlphabet = true;

        BlockState &st = blockState(blk);

        if (is_read) {
            // The open vector does not advance the history; the read
            // is judged against the prediction standing for this read
            // phase.
            if (const PatternEntry *e = st.pattern.peek()) {
                obs.predicted = true;
                obs.correct =
                    Symbol::encodedKind(e->pred) == SymKind::ReadVec &&
                    NodeSet::fromRaw(Symbol::encodedPayload(e->pred))
                        .contains(msg.src);
            }
            st.openVec.add(msg.src);
            st.openActive = true;
            account(obs);
            return obs;
        }

        // Write or upgrade: first close any open read vector,
        // learning it as the successor of the pre-phase history.
        if (st.openActive) {
            if (st.pattern.learnAndPush(Symbol::readVec(st.openVec)))
                ++pteTotal_;
            st.openVec.clear();
            st.openActive = false;
        }

        const Symbol sym = Symbol::of(msg.kind, msg.src);
        if (st.pattern.warm()) {
            st.lastWriteKey = st.pattern.key();
            st.lastWriteKeyValid = true;
        } else {
            st.lastWriteKeyValid = false;
        }
        const BlockPattern::LearnResult r =
            st.pattern.observeLearn(sym);
        obs.predicted = r.hadPred;
        obs.correct = r.matched;
        if (r.inserted)
            ++pteTotal_;

        account(obs);
        return obs;
    }

    StorageReport storage() const override;

    void
    reserveShard(NodeId home, std::size_t blocks) override
    {
        index_.reserve(home, blocks);
    }

    /**
     * Predicted successor of the current (closed-symbol) history.
     * While a read vector is open this is the prediction for the
     * ongoing read phase.
     */
    std::optional<Symbol> prediction(BlockId blk) const;

    /**
     * Predicted reader vector for the current read phase, if the
     * prediction is a read vector. Convenience for the speculation
     * engine's First-Read and SWI triggers.
     */
    std::optional<NodeSet> predictedReaders(BlockId blk) const;

    /** Readers observed so far in the currently open phase. */
    NodeSet openReaders(BlockId blk) const;

    /** History key indexing the current prediction (for bookkeeping). */
    std::optional<HistoryKey> predictionKey(BlockId blk) const;

    /**
     * Key of the entry whose prediction is the most recently observed
     * write/upgrade for @p blk -- the entry that carries the SWI
     * premature bit for that write.
     */
    std::optional<HistoryKey> lastWriteKey(BlockId blk) const;

    /** Query the SWI premature bit on an entry. */
    bool isPremature(BlockId blk, const HistoryKey &k) const;

    /** Set the SWI premature bit on an entry (no-op if gone). */
    void setPremature(BlockId blk, const HistoryKey &k);

    /** Remove a misspeculated entry from the pattern table. */
    void eraseEntry(BlockId blk, const HistoryKey &k);

    // ---- Fault layer: checkpoint / restore / cold restart.

    /** Opaque deep copy of all per-block state (defined below). */
    class Snapshot;

    /**
     * Deep-copy every block's prediction state. Taken periodically by
     * the fault layer's checkpoint schedule; the copy is what a warm
     * restart merges into the backup home's predictor.
     */
    Snapshot snapshot() const;

    /**
     * Merge a checkpoint: blocks this predictor has no state for are
     * adopted wholesale; blocks it is already tracking keep their
     * (fresher) live state.
     */
    void mergeFrom(const Snapshot &s);

    /** Cold restart: drop all learned state, keep the statistics. */
    void reset() override;

  private:
    struct BlockState
    {
        explicit BlockState(std::size_t depth)
            : pattern(depth)
        {}

        BlockPattern pattern;
        NodeSet openVec;      //!< readers since the last write
        bool openActive = false;
        HistoryKey lastWriteKey;
        bool lastWriteKeyValid = false;
    };

    BlockState *findState(BlockId blk);
    const BlockState *findState(BlockId blk) const;

    /**
     * Find-or-create per-block state. Records live in a chunked arena
     * with stable addresses, created on first observation; the index
     * holds one pointer per block.
     */
    BlockState &
    blockState(BlockId blk)
    {
        BlockState *&st = index_[blk];
        if (!st) [[unlikely]]
            st = &store_.emplace_back(depth_);
        return *st;
    }

    ShardTable<BlockState *> index_; //!< blk -> arena record
    ChunkedVector<BlockState, 64> store_;
    std::uint64_t pteTotal_ = 0; //!< entries across all blocks,
                                 //!< maintained incrementally

  public:
    /**
     * A predictor checkpoint: value copies of every block record at
     * snapshot time. Opaque to everything but Vmsp; the fault layer
     * only sizes its replication traffic from blockCount().
     */
    class Snapshot
    {
        friend class Vmsp;
        std::vector<std::pair<BlockId, BlockState>> blocks_;

      public:
        /** Blocks captured (sizes the CkptData replication burst). */
        std::size_t blockCount() const { return blocks_.size(); }
    };
};

} // namespace mspdsm

#endif // MSPDSM_PRED_VMSP_HH
