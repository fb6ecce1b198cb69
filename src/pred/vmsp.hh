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
 * the current predicted reader vector, history keys for the SWI
 * premature bits, and entry removal on verified misspeculation (paper
 * Section 4.2).
 *
 * Encoding, the one Cosmos/MSP use (seq_predictor.hh) with a reader
 * vector named by a per-block dictionary index:
 *  - a symbol is a 12-bit code, tag | payload << 2: the tag is Write,
 *    Upgrade or ReadVec, the payload the pid or the index of the
 *    vector in the block's own dictionary (first come, first
 *    numbered; never renumbered until reset);
 *  - a history is the last `depth` codes packed newest-lowest into
 *    12 * depth <= 48 bits, and it is the pattern-table key;
 *  - a pattern entry is one word: history | pred << 48 | premature
 *    << 60;
 *  - a block record is 128 bytes: history, fill, open vector, last
 *    write key, five inline entries and six inline dictionary
 *    vectors. Entries and vectors past those go to a per-predictor
 *    spill map keyed by (block, word).
 *
 * A 12-bit code names 1024 vectors. A block that outgrows that stays
 * exact: its later vectors get full 32-bit codes, a history holding
 * one is numbered by a second per-block dictionary (its key is that
 * number with tag 3, which no packed history ends in), and a
 * prediction of one is kept in the spill map behind a tag-3 escape.
 */

#ifndef MSPDSM_PRED_VMSP_HH
#define MSPDSM_PRED_VMSP_HH

#include <optional>
#include <utility>
#include <vector>

#include "base/flat_map.hh"
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
    /**
     * A pattern-table key: a history word. It names the same history
     * for as long as the block keeps its learned state (until
     * reset()).
     */
    using Key = std::uint64_t;

    /** @param map block geometry its per-block records are laid out by */
    Vmsp(std::size_t depth, unsigned numProcs,
         const AddrMap &map = AddrMap(ProtoConfig{}));

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

        Record &r = blocks_[blk];
        if (!r.live) [[unlikely]] {
            r.live = true;
            ++blocksAllocated_;
        }

        if (is_read) {
            // The open vector does not advance the history; the read
            // is judged against the prediction standing for this read
            // phase.
            if (const std::uint64_t *e = currentEntry(r, blk)) {
                obs.predicted = true;
                const std::uint64_t pred = predOf(blk, *e);
                obs.correct =
                    (pred & tagMask) == tagVec &&
                    vecAt(r, blk, pred >> tagBits).contains(msg.src);
            }
            r.open |= std::uint64_t{1} << msg.src;
            account(obs);
            return obs;
        }

        // Write or upgrade: first close any open read vector,
        // learning it as the successor of the pre-phase history.
        if (r.open) {
            learn(r, blk, vecCode(r, blk, r.open));
            r.open = 0;
        }

        r.lastWriteValid = r.fill == depth_;
        r.lastWrite = r.history;
        const Learned l = learn(
            r, blk,
            (msg.kind == SymKind::Write ? tagWrite : tagUpgrade) |
                std::uint64_t{msg.src} << tagBits);
        obs.predicted = l.hadPred;
        obs.correct = l.matched;

        account(obs);
        return obs;
    }

    StorageReport storage() const override;

    void
    reserveShard(NodeId home, std::size_t blocks) override
    {
        blocks_.reserve(home, blocks);
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

    /** Key of the current prediction's entry (for bookkeeping). */
    std::optional<Key> predictionKey(BlockId blk) const;

    /**
     * Key of the entry whose prediction is the most recently observed
     * write/upgrade for @p blk -- the entry that carries the SWI
     * premature bit for that write.
     */
    std::optional<Key> lastWriteKey(BlockId blk) const;

    /** Query the SWI premature bit on an entry. */
    bool isPremature(BlockId blk, Key k) const;

    /** Set the SWI premature bit on an entry (no-op if gone). */
    void setPremature(BlockId blk, Key k);

    /** Remove a misspeculated entry from the pattern table. */
    void eraseEntry(BlockId blk, Key k);

    // ---- Fault layer: cold restart.

    /** Cold restart: drop all learned state, keep the statistics. */
    void reset() override;

  private:
    static constexpr unsigned tagBits = 2;
    static constexpr std::uint64_t tagMask = (1u << tagBits) - 1;
    static constexpr std::uint64_t tagWrite = 0;
    static constexpr std::uint64_t tagUpgrade = 1;
    static constexpr std::uint64_t tagVec = 2;
    /** Escape: a wide history key, or a wide prediction. */
    static constexpr std::uint64_t tagWide = 3;

    static constexpr unsigned codeBits = 12;
    /** Codes below this fit a history slot and an entry's pred. */
    static constexpr std::uint64_t narrowCodes = std::uint64_t{1}
                                                 << codeBits;
    static_assert(maxNodes < (narrowCodes >> tagBits),
                  "every pid fits the code's payload field");

    /** Bit position of the predicted code in an entry word. */
    static constexpr unsigned predShift = codeBits * maxHistoryDepth;
    static constexpr std::uint64_t historyMask =
        (std::uint64_t{1} << predShift) - 1;
    static constexpr std::uint64_t prematureBit = std::uint64_t{1}
                                                  << (predShift +
                                                      codeBits);

    static constexpr unsigned inlineEntries = 5;
    static constexpr unsigned inlineVecs = 6;

    /**
     * One block's prediction state. Not cache-line aligned on
     * purpose: vectors of over-aligned records go through the aligned
     * allocator, which raised the peak RSS of a 20 s mesh-faults
     * benchmark run on a 4-vCPU VM by about 1.5 MB and bought no
     * measurable speed.
     */
    struct Record
    {
        std::uint64_t entry[inlineEntries]; //!< history | pred | prem.
        std::uint64_t vec[inlineVecs]; //!< dictionary, first vectors
        std::uint64_t history;   //!< current history key
        std::uint64_t lastWrite; //!< key before the latest write
        std::uint64_t open;      //!< readers since the last write
        std::uint32_t vecs;      //!< dictionary size
        std::uint32_t wides;     //!< wide histories numbered
        std::uint32_t spilled;   //!< entries in the spill map
        std::uint8_t fill;       //!< codes in history (<= depth)
        std::uint8_t count;      //!< inline entries in use
        bool live;               //!< observed since the last reset
        bool lastWriteValid;     //!< lastWrite was a full history
    };

    static_assert(sizeof(Record) == 128, "a block record is 128 bytes");

    /** What the spill map holds under a (block, word) key. */
    enum class Spill : std::uint64_t
    {
        Entry,    //!< history -> entry word
        Pred,     //!< history -> full code of a wide prediction
        Vec,      //!< dictionary index -> raw vector
        VecIndex, //!< raw vector -> dictionary index
    };

    struct SpillKey
    {
        BlockId blk;
        std::uint64_t word; //!< Spill kind in the top two bits

        bool operator==(const SpillKey &) const = default;
    };

    struct SpillHash
    {
        std::size_t
        operator()(const SpillKey &k) const
        {
            return static_cast<std::size_t>(
                mix64(k.word ^ k.blk * 0x9e3779b97f4a7c15ULL));
        }
    };

    static SpillKey
    spillKey(Spill kind, BlockId blk, std::uint64_t word)
    {
        return {blk, word | static_cast<std::uint64_t>(kind) << 62};
    }

    /** A history holding a wide code, spelled out oldest first. */
    struct WideHistory
    {
        BlockId blk;
        std::uint32_t len;
        std::uint32_t code[maxHistoryDepth];

        bool operator==(const WideHistory &) const = default;
    };

    struct WideHash
    {
        std::size_t
        operator()(const WideHistory &h) const
        {
            std::uint64_t x = mix64(h.blk ^ h.len);
            for (std::uint32_t c : h.code)
                x = mix64(x ^ c);
            return static_cast<std::size_t>(x);
        }
    };

    using SpillMap = FlatMap<SpillKey, std::uint64_t, SpillHash>;
    using WideIds = FlatMap<WideHistory, std::uint64_t, WideHash>;
    using WideSeqs = FlatMap<SpillKey, WideHistory, SpillHash>;

    /** Outcome of one learn step. */
    struct Learned
    {
        bool hadPred = false; //!< an entry stood for the history
        bool matched = false; //!< ... and predicted the symbol
    };

    /** Entry for @p key, or null. */
    const std::uint64_t *
    findEntry(const Record &r, BlockId blk, Key key) const
    {
        for (unsigned i = 0; i < r.count; ++i)
            if ((r.entry[i] & historyMask) == key)
                return &r.entry[i];
        if (r.spilled) [[unlikely]] {
            auto it = spill_.find(spillKey(Spill::Entry, blk, key));
            if (it != spill_.end())
                return &it->second;
        }
        return nullptr;
    }

    std::uint64_t *
    findEntry(Record &r, BlockId blk, Key key)
    {
        return const_cast<std::uint64_t *>(
            std::as_const(*this).findEntry(r, blk, key));
    }

    /** Entry predicting the current history's successor, or null. */
    const std::uint64_t *
    currentEntry(const Record &r, BlockId blk) const
    {
        return r.fill == depth_ ? findEntry(r, blk, r.history)
                                : nullptr;
    }

    /** Full code an entry predicts. */
    std::uint64_t
    predOf(BlockId blk, std::uint64_t entry) const
    {
        const std::uint64_t pred = entry >> predShift & (narrowCodes - 1);
        if (pred != tagWide) [[likely]]
            return pred;
        return spill_.find(spillKey(Spill::Pred, blk,
                                    entry & historyMask))
            ->second;
    }

    /** Dictionary vector @p idx of the block. */
    NodeSet
    vecAt(const Record &r, BlockId blk, std::uint64_t idx) const
    {
        if (idx < inlineVecs) [[likely]]
            return NodeSet::fromRaw(r.vec[idx]);
        return NodeSet::fromRaw(
            spill_.find(spillKey(Spill::Vec, blk, idx))->second);
    }

    /** Code of reader vector @p raw, numbering it if new. */
    std::uint64_t
    vecCode(Record &r, BlockId blk, std::uint64_t raw)
    {
        const unsigned n = r.vecs < inlineVecs ? r.vecs : inlineVecs;
        for (unsigned i = 0; i < n; ++i)
            if (r.vec[i] == raw)
                return tagVec | std::uint64_t{i} << tagBits;
        return vecCodeSlow(r, blk, raw);
    }

    std::uint64_t vecCodeSlow(Record &r, BlockId blk, std::uint64_t raw);

    /**
     * Check the standing prediction against symbol @p code, record
     * @p code as the successor of the current history (when full),
     * and shift it into the history.
     */
    Learned
    learn(Record &r, BlockId blk, std::uint64_t code)
    {
        Learned l;
        const bool full = r.fill == depth_;
        if (full) {
            if (std::uint64_t *e = findEntry(r, blk, r.history)) {
                l.hadPred = true;
                if (predOf(blk, *e) == code)
                    l.matched = true;
                else
                    replacePred(blk, *e, code);
            } else {
                insertEntry(r, blk, code);
            }
        }
        if (code < narrowCodes && (r.history & tagMask) != tagWide)
            [[likely]] {
            r.history = (r.history << codeBits | code) & histMask_;
        } else {
            r.history = pushWide(r, blk, code);
        }
        if (!full)
            ++r.fill;
        return l;
    }

    /** Add an entry predicting @p code for the current history. */
    void insertEntry(Record &r, BlockId blk, std::uint64_t code);

    /**
     * Make @p entry predict @p code. The premature bit belongs to the
     * entry's predicted *write*: it survives as long as the same
     * processor is still the predicted writer (a producer robbed by
     * SWI re-acquires with GetX instead of Upgrade, which must not
     * launder the bit), and is cleared by any other replacement.
     */
    void replacePred(BlockId blk, std::uint64_t &entry,
                     std::uint64_t code);

    /**
     * History key after shifting @p code in, the slow way: the
     * history or the code is wide.
     */
    Key pushWide(Record &r, BlockId blk, std::uint64_t code);

    const std::uint64_t histMask_; //!< low codeBits * depth bits
    ShardTable<Record> blocks_;
    /** Entries, wide predictions and vectors past the records. */
    SpillMap spill_;
    /** Per-block numbering of wide histories, and its inverse. */
    WideIds wideIds_;
    WideSeqs wideSeqs_;
    std::uint64_t pteTotal_ = 0;        //!< entries across all blocks
    std::uint64_t blocksAllocated_ = 0; //!< live blocks
};

} // namespace mspdsm

#endif // MSPDSM_PRED_VMSP_HH
