/**
 * @file
 * Speculation policy pieces (paper Section 4).
 *
 * The speculative coherent DSM needs three mechanisms: predicting
 * *what* arrives (VMSP, in pred/), predicting *when* to act (the
 * triggers here: Speculative Write-Invalidation and First-Read), and
 * executing existing protocol operations early (the directory simply
 * issues ordinary Recall / data messages ahead of demand). This header
 * holds the trigger-side state machines and the statistics the paper's
 * Table 5 reports; the orchestration lives in dsm/Directory, which is
 * the component that owns the protocol state the triggers act upon.
 */

#ifndef MSPDSM_SPEC_SPEC_HH
#define MSPDSM_SPEC_SPEC_HH

#include <optional>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace mspdsm
{

/** Speculation configuration of a DSM instance. */
enum class SpecMode : std::uint8_t
{
    None,         //!< Base-DSM: no speculation
    FirstRead,    //!< FR-DSM: first read triggers the read sequence
    SwiFirstRead, //!< SWI-DSM: SWI plus FR fallback
};

/** @return printable mode name ("Base-DSM", "FR-DSM", "SWI-DSM"). */
const char *specModeName(SpecMode m);

/**
 * The early-write-invalidate table of the SWI heuristic: per
 * processor, the last block (homed at this node) it wrote or
 * upgraded. A subsequent write by the same processor to a different
 * block predicts that the producer is done with the previous one
 * (paper Section 4.1).
 */
class SwiTable
{
  public:
    explicit SwiTable(unsigned numProcs)
        : last_(numProcs), valid_(numProcs, false)
    {}

    /**
     * Record a completed write by @p writer to @p blk.
     * @return the previously recorded block if it differs from
     *         @p blk -- the SWI invalidation candidate.
     */
    std::optional<BlockId>
    recordWrite(NodeId writer, BlockId blk)
    {
        std::optional<BlockId> prev;
        if (valid_[writer] && last_[writer] != blk)
            prev = last_[writer];
        last_[writer] = blk;
        valid_[writer] = true;
        return prev;
    }

  private:
    std::vector<BlockId> last_;
    std::vector<bool> valid_;
};

/**
 * Speculation statistics (per directory; the harness aggregates
 * across nodes). The paper's Table 5 derives from these.
 */
struct SpecStats
{
    Counter swiSent;       //!< speculative write invalidations issued
    Counter swiCompleted;  //!< ... whose writeback completed
    Counter swiPremature;  //!< ... judged premature afterwards
    Counter swiSuppressed; //!< skipped due to a set premature bit
    Counter specSentFr;    //!< read-only copies pushed by First-Read
    Counter specSentSwi;   //!< read-only copies pushed after SWI
    Counter specUsedFr;    //!< verified referenced (FR)
    Counter specUsedSwi;   //!< verified referenced (SWI)
    Counter specMissFr;    //!< verified unreferenced (FR)
    Counter specMissSwi;   //!< verified unreferenced (SWI)
    Counter specDroppedVerified; //!< pushed copy raced a demand miss

    // Always-on latency distribution (see CacheStats): passive
    // fixed-size accounting, recorded in every run.
};

} // namespace mspdsm

#endif // MSPDSM_SPEC_SPEC_HH
