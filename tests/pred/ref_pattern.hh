/**
 * @file
 * Test-only reference for the packed predictor engines: the generic
 * two-level pattern table all three predictors once ran on.
 *
 * A symbol is kept in an injective 64-bit encoding (kind in the top 3
 * bits, the pid or the raw reader vector below), a history is the
 * array of its encoded symbols (HistoryKey), and each block keeps a
 * BlockPattern: the history register plus a pattern table of
 * HistoryKey -> PatternEntry, four entries inline and the rest in a
 * per-block FlatMap. Nothing is packed or numbered, so it is easy to
 * check by eye; tests/pred/test_seq_diff.cc drives it next to the
 * packed engines and asserts they agree after every message.
 */

#ifndef MSPDSM_TESTS_PRED_REF_PATTERN_HH
#define MSPDSM_TESTS_PRED_REF_PATTERN_HH

#include <array>
#include <cstdint>
#include <optional>

#include "base/flat_map.hh"
#include "pred/predictor.hh"
#include "pred/symbol.hh"

namespace mspdsm::ref
{

constexpr unsigned encKindShift = 61;
constexpr std::uint64_t encPayloadMask =
    (std::uint64_t{1} << encKindShift) - 1;

/** Injective 64-bit form of a symbol. */
inline std::uint64_t
encode(const Symbol &s)
{
    const std::uint64_t payload =
        s.kind == SymKind::ReadVec ? s.vec.raw() : std::uint64_t{s.pid};
    return std::uint64_t(s.kind) << encKindShift | payload;
}

inline SymKind
encodedKind(std::uint64_t enc)
{
    return static_cast<SymKind>(enc >> encKindShift);
}

inline std::uint64_t
encodedPayload(std::uint64_t enc)
{
    return enc & encPayloadMask;
}

inline Symbol
decode(std::uint64_t enc)
{
    const SymKind k = encodedKind(enc);
    if (k == SymKind::ReadVec)
        return Symbol::readVec(NodeSet::fromRaw(encodedPayload(enc)));
    return Symbol::of(k, static_cast<NodeId>(encodedPayload(enc)));
}

/** A history: its encoded symbols oldest first, and how many. */
struct HistoryKey
{
    std::array<std::uint64_t, maxHistoryDepth> slots{};
    std::uint8_t used = 0;

    bool
    operator==(const HistoryKey &o) const
    {
        if (used != o.used)
            return false;
        for (std::uint8_t i = 0; i < used; ++i)
            if (slots[i] != o.slots[i])
                return false;
        return true;
    }
};

struct HistoryKeyHash
{
    std::size_t
    operator()(const HistoryKey &k) const
    {
        std::uint64_t h =
            0x9e3779b97f4a7c15ULL ^ (std::uint64_t{k.used} << 56);
        for (std::uint8_t i = 0; i < k.used; ++i)
            h = mix64(h ^ k.slots[i]);
        return static_cast<std::size_t>(h);
    }
};

/** Predicted successor (encoded) and the SWI premature bit. */
struct PatternEntry
{
    std::uint64_t pred = 0;
    bool premature = false;
};

/** Two-level prediction state for a single memory block. */
class BlockPattern
{
  public:
    struct LearnResult
    {
        bool hadPred = false;  //!< an entry stood for this history
        bool matched = false;  //!< ... and predicted the symbol
        bool inserted = false; //!< a new entry was allocated
    };

    explicit BlockPattern(std::size_t depth)
        : depth_(static_cast<std::uint8_t>(depth))
    {}

    bool warm() const { return key_.used == depth_; }

    const HistoryKey &key() const { return key_; }

    std::optional<Symbol>
    lookup() const
    {
        const PatternEntry *e = warm() ? find(key_) : nullptr;
        if (!e)
            return std::nullopt;
        return decode(e->pred);
    }

    /**
     * Check the standing prediction against @p observed, record it as
     * the successor of the current history (when warm), and shift it
     * into the history.
     */
    LearnResult
    observeLearn(const Symbol &observed)
    {
        const std::uint64_t enc = encode(observed);
        LearnResult r;
        if (warm()) {
            PatternEntry *e = find(key_);
            if (!e) {
                e = insert(key_);
                r.inserted = true;
                e->pred = enc;
            } else {
                r.hadPred = true;
                if (e->pred == enc) {
                    r.matched = true;
                } else {
                    // The premature bit follows the predicted writer.
                    const bool same_writer =
                        isWriteKind(encodedKind(e->pred)) &&
                        isWriteKind(encodedKind(enc)) &&
                        encodedPayload(e->pred) == encodedPayload(enc);
                    e->pred = enc;
                    if (!same_writer)
                        e->premature = false;
                }
            }
        }
        if (key_.used == depth_) {
            for (std::uint8_t i = 1; i < depth_; ++i)
                key_.slots[i - 1] = key_.slots[i];
            key_.slots[depth_ - 1] = enc;
        } else {
            key_.slots[key_.used++] = enc;
        }
        return r;
    }

    static bool
    isWriteKind(SymKind k)
    {
        return k == SymKind::Write || k == SymKind::Upgrade;
    }

    std::size_t entries() const { return inlineCount_ + spill_.size(); }

    PatternEntry *
    find(const HistoryKey &k)
    {
        for (unsigned i = 0; i < inlineCount_; ++i)
            if (inlineKey_[i] == k)
                return &inlineVal_[i];
        auto it = spill_.find(k);
        return it == spill_.end() ? nullptr : &it->second;
    }

    const PatternEntry *
    find(const HistoryKey &k) const
    {
        return const_cast<BlockPattern *>(this)->find(k);
    }

    /** Erase an entry; @return true iff one was removed. */
    bool
    erase(const HistoryKey &k)
    {
        for (unsigned i = 0; i < inlineCount_; ++i) {
            if (inlineKey_[i] == k) {
                const unsigned last = --inlineCount_;
                inlineKey_[i] = inlineKey_[last];
                inlineVal_[i] = inlineVal_[last];
                return true;
            }
        }
        return spill_.erase(k) != 0;
    }

  private:
    static constexpr unsigned inlineN = 4;

    PatternEntry *
    insert(const HistoryKey &k)
    {
        if (inlineCount_ < inlineN) {
            const unsigned i = inlineCount_++;
            inlineKey_[i] = k;
            inlineVal_[i] = PatternEntry{};
            return &inlineVal_[i];
        }
        return &spill_.try_emplace(k).first->second;
    }

    HistoryKey key_;
    std::uint8_t depth_;
    std::uint8_t inlineCount_ = 0;
    HistoryKey inlineKey_[inlineN];
    PatternEntry inlineVal_[inlineN];
    FlatMap<HistoryKey, PatternEntry, HistoryKeyHash> spill_;
};

} // namespace mspdsm::ref

#endif // MSPDSM_TESTS_PRED_REF_PATTERN_HH
