/**
 * @file
 * Abstract interface shared by the three directory predictors
 * (Cosmos, MSP, VMSP) plus their statistics and storage accounting.
 *
 * A predictor lives beside one directory. Every incoming coherence
 * message for a home block is presented to it via observe(); the
 * predictor decides whether the message belongs to its alphabet
 * (Cosmos: all messages; MSP/VMSP: requests only), checks the message
 * against its outstanding prediction, learns, and returns the
 * per-message accounting used for the paper's accuracy and coverage
 * metrics.
 */

#ifndef MSPDSM_PRED_PREDICTOR_HH
#define MSPDSM_PRED_PREDICTOR_HH

#include <cstddef>
#include <cstdint>

#include "base/stats.hh"
#include "base/types.hh"
#include "pred/symbol.hh"

namespace mspdsm
{

/**
 * Maximum supported history depth. The paper evaluates 1, 2 and 4;
 * the packed histories of all three predictors are sized by it.
 */
constexpr std::size_t maxHistoryDepth = 4;

/**
 * A directory-incoming message as seen by a predictor.
 * `kind` is never ReadVec -- folding is internal to VMSP.
 */
struct PredMsg
{
    SymKind kind; //!< Read, Write, Upgrade, InvAck, or WriteBack
    NodeId src;   //!< requesting / responding processor
};

/**
 * Per-message outcome returned by observe(), packed into one byte so
 * it travels in a register: three separate bools came back as byte
 * stores read again as one wider word.
 */
struct Observation
{
    bool inAlphabet : 1 = false; //!< message belongs to predictor's class
    bool predicted : 1 = false;  //!< a prediction existed for this slot
    bool correct : 1 = false;    //!< ... and it matched the message
};

static_assert(sizeof(Observation) == 1, "an observation is one byte");

/** Aggregate accuracy/coverage statistics. */
struct PredStats
{
    Counter observed;  //!< messages in the predictor's alphabet
    Counter predicted; //!< of those, messages for which a prediction
                       //!< had been issued
    Counter correct;   //!< of those, correct predictions

    /** Prediction accuracy %, the paper's Figures 7/8 metric. */
    double accuracyPct() const
    {
        return pct(correct.value(), predicted.value());
    }

    /** Fraction of messages predicted %, the paper's Table 3 metric. */
    double coveragePct() const
    {
        return pct(predicted.value(), observed.value());
    }

    /** Predicted-and-correct over all messages % (Table 3, parens). */
    double correctOfAllPct() const
    {
        return pct(correct.value(), observed.value());
    }
};

/** Storage accounting for the paper's Table 4. */
struct StorageReport
{
    std::uint64_t blocksAllocated = 0; //!< blocks with predictor state
    std::uint64_t pteTotal = 0;        //!< total pattern-table entries
    double avgPte = 0.0;               //!< entries per allocated block
    double avgBytesPerBlock = 0.0;     //!< paper Section 7.3 formulas
};

/**
 * Base class for the three predictors.
 */
class PredictorBase
{
  public:
    /**
     * @param depth history depth (paper evaluates 1, 2, 4)
     * @param numProcs processor count, for id/vector encoding widths
     */
    PredictorBase(std::size_t depth, unsigned numProcs)
        : depth_(depth), numProcs_(numProcs)
    {}

    virtual ~PredictorBase() = default;

    // Predictors are per-node machine state owned in place; copying
    // one is a bug.
    PredictorBase(const PredictorBase &) = delete;
    PredictorBase &operator=(const PredictorBase &) = delete;

    /** Human-readable predictor name ("Cosmos", "MSP", "VMSP"). */
    virtual const char *name() const = 0;

    /**
     * Present one incoming directory message for block @p blk.
     * Updates prediction state and statistics.
     */
    virtual Observation observe(BlockId blk, const PredMsg &msg) = 0;

    /** Storage accounting over all blocks touched so far. */
    virtual StorageReport storage() const = 0;

    /**
     * Size the per-block records of geometric home @p home for
     * @p blocks blocks, so a run allocates none on first touch. The
     * default is a no-op for test doubles.
     */
    virtual void reserveShard(NodeId, std::size_t) {}

    /**
     * Drop all learned state (histories, pattern tables) -- the fault
     * layer's predictor-state loss on a node crash. Accuracy counters
     * are measurements, not machine state, and survive. The default
     * is a no-op so stateless test doubles need not care.
     */
    virtual void reset() {}

    /** Accuracy/coverage counters. */
    const PredStats &stats() const { return stats_; }

    /** Configured history depth. */
    std::size_t depth() const { return depth_; }

    /** Configured processor count. */
    unsigned numProcs() const { return numProcs_; }

  protected:
    /** Record one observation into the stats block (branchless). */
    void
    account(const Observation &o)
    {
        stats_.observed.inc(o.inAlphabet);
        stats_.predicted.inc(o.predicted);
        stats_.correct.inc(o.correct);
    }

    /** Bits to encode a processor id (paper: 4 bits for 16 procs). */
    unsigned
    pidBits() const
    {
        unsigned b = 1;
        while ((1u << b) < numProcs_)
            ++b;
        return b;
    }

    std::size_t depth_;
    unsigned numProcs_;
    PredStats stats_;
};

} // namespace mspdsm

#endif // MSPDSM_PRED_PREDICTOR_HH
