/**
 * @file
 * Shared engine for the per-message sequence predictors (Cosmos and
 * MSP). The two differ only in their alphabet: Cosmos predicts every
 * incoming directory message, MSP only the request messages. VMSP has
 * its own engine (vmsp.hh) because of read-vector folding.
 *
 * Encoding, after the paper's own (Section 7.3: a history entry is
 * type + pid bits):
 *  - a symbol is a 9-bit code, kind | pid << 3;
 *  - a block's history register is its last `depth` codes packed
 *    newest-lowest into 9 * depth <= 36 bits, plus a fill count;
 *    predictions are issued and learned only once it is full;
 *  - a pattern-table entry is one word, history | pred << 36;
 *  - a block record holds six entries inline in 64 bytes; further
 *    entries go to one per-predictor overflow map keyed by
 *    block << 36 | history.
 */

#ifndef MSPDSM_PRED_SEQ_PREDICTOR_HH
#define MSPDSM_PRED_SEQ_PREDICTOR_HH

#include <optional>
#include <utility>

#include "base/flat_map.hh"
#include "pred/history.hh"
#include "pred/predictor.hh"
#include "proto/shard_table.hh"

namespace mspdsm
{

/**
 * Two-level predictor over a per-block symbol stream where every
 * message in the alphabet is its own symbol <type, pid>.
 */
class SeqPredictor : public PredictorBase
{
  public:
    /**
     * @param alphabet bitmask over SymKind values naming the message
     *        kinds this predictor observes (a data member rather than
     *        a virtual hook: the alphabet test runs per message)
     * @param map block geometry its per-block records are laid out by
     */
    SeqPredictor(std::size_t depth, unsigned numProcs,
                 unsigned alphabet, const AddrMap &map);

    /**
     * Defined inline: this is the per-message hot path of the whole
     * simulator, and the call sites (directory observation loop,
     * micro benches) must be able to absorb it.
     */
    Observation
    observe(BlockId blk, const PredMsg &msg) override
    {
        Observation obs;
        if (!inAlphabet(msg.kind))
            return obs;
        obs.inAlphabet = true;

        Record &r = blocks_[blk];
        const std::uint64_t code = encode(msg.kind, msg.src);
        if (r.fill == depth_) {
            if (std::uint64_t *e = findEntry(r, blk)) {
                obs.predicted = true;
                if (*e >> predShift == code)
                    obs.correct = true;
                else
                    *e = (*e & historyMask) | code << predShift;
            } else {
                insertEntry(r, blk, code);
                ++pteTotal_;
            }
        } else {
            if (r.fill == 0)
                ++blocksAllocated_;
            ++r.fill;
        }
        r.history = (r.history << codeBits | code) & histMask_;

        account(obs);
        return obs;
    }

    StorageReport storage() const override;

    void
    reserveShard(NodeId home, std::size_t blocks) override
    {
        blocks_.reserve(home, blocks);
    }

    /** Predicted next message for @p blk, if known. */
    std::optional<Symbol> prediction(BlockId blk) const;

    /** Bitmask bit for one symbol kind. */
    static constexpr unsigned
    kindBit(SymKind k)
    {
        return 1u << static_cast<unsigned>(k);
    }

    /** @return true iff @p kind is in this predictor's alphabet. */
    bool
    inAlphabet(SymKind kind) const
    {
        return alphabet_ & kindBit(kind);
    }

  protected:
    /** Bits for one history entry: type bits + pid bits. */
    virtual unsigned historyEntryBits() const = 0;

  private:
    static constexpr unsigned kindBits = 3;
    static constexpr unsigned codeBits = kindBits + 6;
    static_assert(static_cast<unsigned>(SymKind::WriteBack) <
                      (1u << kindBits),
                  "every Cosmos/MSP symbol kind fits the code's kind "
                  "field");
    static_assert(maxNodes <= (1u << (codeBits - kindBits)),
                  "every pid fits the code's pid field");

    /** Bit position of the predicted code in an entry word. */
    static constexpr unsigned predShift = codeBits * maxHistoryDepth;
    static constexpr std::uint64_t historyMask =
        (std::uint64_t{1} << predShift) - 1;

    /** Entries held in the block record itself. */
    static constexpr unsigned inlineN = 6;

    /** Blocks the overflow key can name (block << predShift). */
    static constexpr BlockId overflowBlocks = BlockId{1}
                                              << (64 - predShift);

    /** One block's prediction state: a cache line. */
    struct alignas(64) Record
    {
        std::uint64_t entry[inlineN]; //!< history | pred << predShift
        std::uint64_t history;        //!< last fill codes, newest low
        std::uint8_t fill;            //!< codes in history (<= depth)
        std::uint8_t count;           //!< inline entries in use
        bool spilled;                 //!< has overflow entries
    };

    static_assert(sizeof(Record) == 64,
                  "a block record is one cache line");

    static std::uint64_t
    encode(SymKind kind, NodeId pid)
    {
        return static_cast<std::uint64_t>(kind) |
               std::uint64_t{pid} << kindBits;
    }

    /** Entry word for the block's current history, or null. */
    const std::uint64_t *
    findEntry(const Record &r, BlockId blk) const
    {
        for (unsigned i = 0; i < r.count; ++i)
            if ((r.entry[i] & historyMask) == r.history)
                return &r.entry[i];
        if (r.spilled) [[unlikely]] {
            auto it = overflow_.find(blk << predShift | r.history);
            if (it != overflow_.end())
                return &it->second;
        }
        return nullptr;
    }

    std::uint64_t *
    findEntry(Record &r, BlockId blk)
    {
        return const_cast<std::uint64_t *>(
            std::as_const(*this).findEntry(r, blk));
    }

    /** Add an entry predicting @p code for the current history. */
    void insertEntry(Record &r, BlockId blk, std::uint64_t code);

    const unsigned alphabet_;
    const std::uint64_t histMask_; //!< low codeBits * depth bits
    ShardTable<Record> blocks_;
    /** Entries past a record's inline six: block << predShift |
     * history -> entry word. */
    FlatMap<std::uint64_t, std::uint64_t> overflow_;
    std::uint64_t pteTotal_ = 0;        //!< entries across all blocks
    std::uint64_t blocksAllocated_ = 0; //!< blocks observed so far
};

/**
 * Cosmos: the general message predictor of Mukherjee & Hill, the
 * paper's baseline. Predicts requests *and* acknowledgements, using
 * 3 type bits per symbol.
 */
class Cosmos final : public SeqPredictor
{
  public:
    Cosmos(std::size_t depth, unsigned numProcs,
           const AddrMap &map = AddrMap(ProtoConfig{}))
        : SeqPredictor(depth, numProcs,
                       // every directory-incoming message
                       kindBit(SymKind::Read) | kindBit(SymKind::Write) |
                           kindBit(SymKind::Upgrade) |
                           kindBit(SymKind::InvAck) |
                           kindBit(SymKind::WriteBack),
                       map)
    {}

    const char *name() const override { return "Cosmos"; }

  protected:
    unsigned historyEntryBits() const override { return 3 + pidBits(); }
};

/**
 * MSP: the paper's base Memory Sharing Predictor. Predicts only the
 * request messages (read / write / upgrade), dropping acknowledgements
 * from the pattern tables; 2 type bits per symbol.
 */
class Msp final : public SeqPredictor
{
  public:
    Msp(std::size_t depth, unsigned numProcs,
        const AddrMap &map = AddrMap(ProtoConfig{}))
        : SeqPredictor(depth, numProcs,
                       // request messages only
                       kindBit(SymKind::Read) | kindBit(SymKind::Write) |
                           kindBit(SymKind::Upgrade),
                       map)
    {}

    const char *name() const override { return "MSP"; }

  protected:
    unsigned historyEntryBits() const override { return 2 + pidBits(); }
};

} // namespace mspdsm

#endif // MSPDSM_PRED_SEQ_PREDICTOR_HH
