/**
 * @file
 * Experiment drivers shared by the bench/ binaries.
 *
 * Two run modes mirror the paper's methodology:
 *  - accuracy runs: Base-DSM (no speculation) with Cosmos, MSP and
 *    VMSP attached as passive observers of the same execution
 *    (Figures 7-8, Tables 3-4);
 *  - speculation runs: VMSP depth 1 driving Base-DSM / FR-DSM /
 *    SWI-DSM (Figure 9, Table 5).
 */

#ifndef MSPDSM_HARNESS_EXPERIMENT_HH
#define MSPDSM_HARNESS_EXPERIMENT_HH

#include <string>

#include "dsm/system.hh"
#include "workload/suite.hh"

namespace mspdsm
{

/** Knobs common to all experiments. */
struct ExperimentConfig
{
    double scale = 1.0;      //!< workload size multiplier
    unsigned iterations = 0; //!< 0 = application default
    std::uint64_t seed = 42;
    unsigned numProcs = 16;
    /** Interconnect topology (--topology / --link-latency). */
    TopoConfig topo = {};
    /** Deadlock-guard override; 0 keeps the DsmConfig default. */
    Tick tickLimit = 0;

    /**
     * Fault schedule and recovery policy (--kill/--restart,
     * --lossy-link, --replicate-shards, ...), copied into the run's
     * DsmConfig as-is. The default empty plan builds no FaultManager
     * and the run is bit-identical to a pre-fault-layer run.
     */
    FaultPlan faults = {};

    // ---- Observability (--trace / --sample-interval). All defaults
    // are inert: an empty ObsConfig builds no ObsManager and the run
    // is bit-identical to an uninstrumented one.

    /** Chrome trace-event JSON output path; empty disables tracing. */
    std::string tracePath;
    /** Trace tick window [traceFrom, traceTo]. */
    Tick traceFrom = 0;
    Tick traceTo = maxTick;
    /** Interval time-series period, ticks; 0 disables the sampler. */
    Tick sampleInterval = 0;
};

/**
 * Run @p app under Base-DSM with the three predictors observing at
 * history depth @p depth.
 * @return RunResult whose observers[] hold Cosmos, MSP, VMSP in that
 *         order.
 */
RunResult runAccuracy(const std::string &app, std::size_t depth,
                      const ExperimentConfig &ec = {});

/**
 * Run @p app with a depth-1 VMSP and the given speculation mode
 * (the paper's Section 7.4 configuration).
 */
RunResult runSpec(const std::string &app, SpecMode mode,
                  const ExperimentConfig &ec = {});

/** Generate the workload an experiment would run (for inspection). */
Workload buildWorkload(const std::string &app,
                       const ExperimentConfig &ec = {});

} // namespace mspdsm

#endif // MSPDSM_HARNESS_EXPERIMENT_HH
