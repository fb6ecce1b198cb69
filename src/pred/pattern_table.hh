/**
 * @file
 * VMSP's per-block two-level prediction state: a bounded history
 * register and a pattern table mapping history keys to predicted
 * successor symbols. (Cosmos and MSP pack the same state into one
 * word per entry, seq_predictor.hh; VMSP's reader-vector symbols
 * carry up to 61-bit payloads, so it keeps the 64-bit encoding.)
 *
 * Predictions are issued and learned only once the history register is
 * full (depth symbols seen), matching the PAp discipline the paper
 * inherits: a deeper history therefore takes longer to learn, which is
 * exactly the learning-speed effect discussed in Section 7.2.
 *
 * Hot-path layout, mirroring how a hardware table would be built:
 *  - the history register IS the cached HistoryKey (symbols are kept
 *    in their injective 64-bit encoded form; nothing else is stored);
 *    the key shifts in place and its hash is recomputed once per push
 *    (depth <= 4, so a full rehash is a handful of mixes);
 *  - predictions are stored and compared encoded, so a "does the
 *    observed message match" check is a single integer compare;
 *  - observeLearn() fuses the prediction read with the learn update
 *    (both address the same entry), one table access per message;
 *  - the first few pattern-table entries live inline in the block
 *    record itself -- a stable producer/consumer block at depth 1
 *    needs two (the vector after the write, the write after the
 *    vector) -- so the common block never allocates and its lookup
 *    stays within the cache lines the block record already occupies.
 *    Irregular blocks spill into an open-addressing FlatMap.
 */

#ifndef MSPDSM_PRED_PATTERN_TABLE_HH
#define MSPDSM_PRED_PATTERN_TABLE_HH

#include <optional>
#include <type_traits>

#include "base/flat_map.hh"
#include "pred/history.hh"
#include "pred/symbol.hh"

namespace mspdsm
{

/**
 * One pattern-table entry: the predicted successor of a history (in
 * Symbol::encode() form), plus the Speculative-Write-Invalidation
 * premature bit (Section 4.1).
 *
 * Deliberately trivial (no default member initializers): entries live
 * in uninitialized inline storage inside every block record, and a
 * cold block's first observation must not pay for constructing four
 * of them. Creation sites value-initialize explicitly
 * (PatternEntry{}).
 */
struct PatternEntry
{
    std::uint64_t pred;     //!< encoded predicted symbol
    bool premature;         //!< SWI previously fired too early here

    /** Decoded prediction, for diagnostics and external consumers. */
    Symbol predSymbol() const { return Symbol::decode(pred); }
};

static_assert(std::is_trivial_v<PatternEntry>,
              "PatternEntry lives in uninitialized inline storage");

/**
 * Two-level prediction state for a single memory block.
 */
class BlockPattern
{
  public:
    /** Outcome of one fused observe: what stood, what changed. */
    struct LearnResult
    {
        /** An entry (i.e. a prediction) stood for this history. */
        bool hadPred = false;
        /** ... and its prediction matched the observed symbol. */
        bool matched = false;
        /** A new pattern-table entry was allocated. */
        bool inserted = false;
    };

    explicit BlockPattern(std::size_t depth)
        : depth_(static_cast<std::uint8_t>(depth))
    {
        panic_if(depth == 0 || depth > maxHistoryDepth,
                 "history depth ", depth, " out of range");
        keyHash_ = HistoryKeyHash{}(key_);
    }

    /** @return true once the history register is full. */
    bool warm() const { return key_.used == depth_; }

    /** Current history key (meaningful only when warm()). */
    const HistoryKey &key() const { return key_; }

    /** Predicted successor of the current history, if any. */
    std::optional<Symbol>
    lookup() const
    {
        const PatternEntry *e = peek();
        if (!e)
            return std::nullopt;
        return e->predSymbol();
    }

    /**
     * Entry holding the current prediction, or null: the copy-free
     * fast path for per-message checks.
     */
    const PatternEntry *
    peek() const
    {
        if (!warm())
            return nullptr;
        return findHashed(key_, keyHash_);
    }

    /**
     * Check the standing prediction against @p observed, record
     * @p observed as the successor of the current history (when warm),
     * and shift it into the history register -- one table access and
     * one symbol encoding in total.
     */
    LearnResult
    observeLearn(const Symbol &observed)
    {
        const std::uint64_t enc = observed.encode();
        LearnResult r;
        if (warm()) {
            PatternEntry *e = findHashed(key_, keyHash_);
            if (!e) {
                e = insert(key_, keyHash_);
                r.inserted = true;
                e->pred = enc;
            } else {
                r.hadPred = true;
                if (e->pred == enc) {
                    r.matched = true;
                } else {
                    // The premature bit belongs to the entry's
                    // predicted *write*: it survives as long as the
                    // same processor is still the predicted writer (a
                    // producer robbed by SWI re-acquires with GetX
                    // instead of Upgrade, which must not launder the
                    // bit), and is invalidated by any other
                    // replacement.
                    const bool same_writer =
                        isWriteKind(Symbol::encodedKind(e->pred)) &&
                        isWriteKind(Symbol::encodedKind(enc)) &&
                        Symbol::encodedPayload(e->pred) ==
                            Symbol::encodedPayload(enc);
                    e->pred = enc;
                    if (!same_writer)
                        e->premature = false;
                }
            }
        }
        pushAndRefresh(enc);
        return r;
    }

    /**
     * Record @p observed as the successor of the current history
     * (when warm) and shift it into the history register.
     * @return true iff a new pattern-table entry was allocated (the
     *         predictors keep their storage totals incrementally)
     */
    bool
    learnAndPush(const Symbol &observed)
    {
        return observeLearn(observed).inserted;
    }

    /** @return true for Write/Upgrade symbols. */
    static bool
    isWriteKind(SymKind k)
    {
        return k == SymKind::Write || k == SymKind::Upgrade;
    }

    /** Number of pattern-table entries for this block. */
    std::size_t
    entries() const
    {
        return inlineCount_ + spill_.size();
    }

    /** Find an entry by explicit key (speculation bookkeeping). */
    PatternEntry *
    find(const HistoryKey &k)
    {
        return findHashed(k, HistoryKeyHash{}(k));
    }

    /** Const overload of find(). */
    const PatternEntry *
    find(const HistoryKey &k) const
    {
        return findHashed(k, HistoryKeyHash{}(k));
    }

    /**
     * Erase an entry (misspeculation removal), no-op if absent.
     * @return true iff an entry was removed
     */
    bool
    erase(const HistoryKey &k)
    {
        const std::size_t h = HistoryKeyHash{}(k);
        for (unsigned i = 0; i < inlineCount_; ++i) {
            if (inlineHash_[i] == static_cast<std::uint32_t>(h) &&
                inlineKeyIs(i, k)) {
                // Entries are unordered; fill the hole from the back.
                const unsigned last = inlineCount_ - 1;
                if (i != last) {
                    inlineHash_[i] = inlineHash_[last];
                    inlineUsed_[i] = inlineUsed_[last];
                    for (unsigned j = 0; j < inlineUsed_[last]; ++j)
                        inlineSlots_[i][j] = inlineSlots_[last][j];
                    inlineVal_[i] = inlineVal_[last];
                }
                --inlineCount_;
                return true;
            }
        }
        return spill_.erase(k) != 0;
    }

    /** Configured history depth. */
    std::size_t depth() const { return depth_; }

  private:
    /**
     * Inline entries cover the regular sharing patterns without any
     * allocation: a stable producer/consumer block needs 2 (vector,
     * write), so 4 keeps it and its variations entirely inside the
     * block record.
     */
    static constexpr unsigned inlineN = 4;

    PatternEntry *
    findHashed(const HistoryKey &k, std::size_t h)
    {
        return const_cast<PatternEntry *>(
            static_cast<const BlockPattern *>(this)->findHashed(k, h));
    }

    /** Compare inline key @p i against @p k (hashes already equal). */
    bool
    inlineKeyIs(unsigned i, const HistoryKey &k) const
    {
        if (inlineUsed_[i] != k.used)
            return false;
        for (std::uint8_t j = 0; j < k.used; ++j)
            if (inlineSlots_[i][j] != k.slots[j])
                return false;
        return true;
    }

    const PatternEntry *
    findHashed(const HistoryKey &k, std::size_t h) const
    {
        const auto h32 = static_cast<std::uint32_t>(h);
        for (unsigned i = 0; i < inlineCount_; ++i)
            if (inlineHash_[i] == h32 && inlineKeyIs(i, k))
                return &inlineVal_[i];
        if (!spill_.empty()) {
            auto it = spill_.findHashed(k, h);
            if (it != spill_.end())
                return &it->second;
        }
        return nullptr;
    }

    /** Insert a default entry for @p k (known absent). */
    PatternEntry *
    insert(const HistoryKey &k, std::size_t h)
    {
        if (inlineCount_ < inlineN) {
            const unsigned i = inlineCount_++;
            inlineHash_[i] = static_cast<std::uint32_t>(h);
            inlineUsed_[i] = k.used;
            for (std::uint8_t j = 0; j < k.used; ++j)
                inlineSlots_[i][j] = k.slots[j];
            inlineVal_[i] = PatternEntry{};
            return &inlineVal_[i];
        }
        return &spill_.tryEmplaceHashed(h, k).first->second;
    }

    /**
     * Shift the encoded symbol into the history key in place and
     * re-hash: the key is the history register.
     */
    void
    pushAndRefresh(std::uint64_t enc)
    {
        if (key_.used == depth_) {
            for (std::uint8_t i = 1; i < depth_; ++i)
                key_.slots[i - 1] = key_.slots[i];
            key_.slots[depth_ - 1] = enc;
        } else {
            key_.slots[key_.used] = enc;
            ++key_.used;
        }
        keyHash_ = HistoryKeyHash{}(key_);
    }

    HistoryKey key_;          //!< history register, encoded oldest-first
    std::size_t keyHash_ = 0; //!< HistoryKeyHash of key_
    std::uint8_t depth_;      //!< configured history depth
    std::uint8_t inlineCount_ = 0;

    /**
     * Inline-entry storage, kept deliberately *uninitialized* (only
     * the first inlineCount_ rows are meaningful): a simulation
     * allocates one block record per touched block, and eagerly
     * value-constructing four keys and entries per record was the
     * bulk of the first-touch cost the pred/observe_cold bench
     * tracks. Keys are stored as raw (used, slots[]) rows rather
     * than HistoryKey so nothing here runs a constructor.
     */
    std::uint32_t inlineHash_[inlineN];
    std::uint8_t inlineUsed_[inlineN];
    std::uint64_t inlineSlots_[inlineN][maxHistoryDepth];
    PatternEntry inlineVal_[inlineN];

    FlatMap<HistoryKey, PatternEntry, HistoryKeyHash> spill_;
};

} // namespace mspdsm

#endif // MSPDSM_PRED_PATTERN_TABLE_HH
