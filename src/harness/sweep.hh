/**
 * @file
 * Parallel sweep engine for the experiment binaries.
 *
 * Every paper figure/table is a sweep over independent configurations
 * (app x predictor depth x speculation mode). A DsmSystem instance is
 * fully self-contained -- its own event queue, RNG streams seeded from
 * the run-level seed, no global state -- so the runs fan out one per
 * worker thread with bit-identical results to a serial sweep
 * (tests/harness/test_sweep.cc pins this).
 *
 * SweepRunner collects RunResults in submission order regardless of
 * completion order, reports tick-limit guard trips structurally (a
 * status column in the summary table and a per-run field in the sweep
 * JSON), and serializes the whole sweep as the mspdsm-sweep-v1 schema
 * CI validates and uploads.
 */

#ifndef MSPDSM_HARNESS_SWEEP_HH
#define MSPDSM_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace mspdsm
{

/** One completed run within a sweep. */
struct SweepRecord
{
    std::string label; //!< e.g. "em3d acc d=1" or "ocean SWI-DSM"
    std::string app;   //!< application name ("" for custom jobs)
    std::string kind;  //!< "accuracy", "spec", or "custom"
    /** Interconnect topology the run simulated ("crossbar", "ring",
     * "mesh2d", "torus2d"); additive mspdsm-sweep-v1 JSON field. */
    std::string topology;
    RunResult result;
    double seconds = 0.0; //!< wall time of this run on its worker
};

/**
 * Deferred-execution sweep: add() queues configurations, results()
 * runs everything (parallel for jobs > 1) and returns the records in
 * submission order.
 */
class SweepRunner
{
  public:
    /**
     * @param jobs worker threads; <= 1 runs the sweep serially in the
     *        caller, 0 means all hardware threads
     */
    explicit SweepRunner(unsigned jobs);

    /**
     * Queue an arbitrary job.
     * @param label row label for the summary table / JSON
     * @param run executed on a worker; its copy captures the full run
     *        configuration, so per-run seeds stay deterministic
     * @param topology topology name recorded for this run. Explicit
     *        on purpose: the runner cannot see inside the closure, so
     *        a defaulted "crossbar" would silently mislabel any
     *        custom job that simulates another fabric.
     * @return submission index of this job
     */
    std::size_t add(std::string label, std::function<RunResult()> run,
                    std::string topology);

    /** Queue runAccuracy(app, depth, ec). */
    std::size_t addAccuracy(const std::string &app, std::size_t depth,
                            const ExperimentConfig &ec);

    /** Queue runSpec(app, mode, ec). */
    std::size_t addSpec(const std::string &app, SpecMode mode,
                        const ExperimentConfig &ec);

    /**
     * Execute all queued jobs (first call) and return the records in
     * submission order. Further add() calls are rejected afterwards.
     */
    const std::vector<SweepRecord> &results();

    /** Result of job @p i (runs the sweep if still pending). */
    const RunResult &
    result(std::size_t i)
    {
        return results()[i].result;
    }

    /** Number of runs that tripped the tick-limit deadlock guard. */
    std::size_t guardTrips();

    /** Wall-clock of the whole sweep, seconds (0 before results()). */
    double wallSeconds() const { return wallSeconds_; }

    /** Worker threads the sweep ran with. */
    unsigned jobs() const { return threads_; }

    /**
     * Print the per-run summary table (run, kind, status, ticks,
     * msgs): the structured view of every guard trip.
     */
    void printSummary(std::ostream &os);

    /** Serialize the sweep as mspdsm-sweep-v1 JSON. */
    void writeJson(std::ostream &os, const std::string &tool);

    /**
     * writeJson() to @p path.
     * @return false if the file could not be opened.
     */
    bool writeJsonFile(const std::string &path, const std::string &tool);

  private:
    struct Job
    {
        std::string label;
        std::string app;
        std::string kind;
        std::string topology;
        std::function<RunResult()> run;
    };

    unsigned threads_;
    std::vector<Job> jobs_;
    std::vector<SweepRecord> records_;
    bool ran_ = false;
    double wallSeconds_ = 0.0;
};

} // namespace mspdsm

#endif // MSPDSM_HARNESS_SWEEP_HH
