/**
 * @file
 * The two microbenchmark suites that track the simulator's hot path:
 *
 *  - the sim suite measures the discrete-event kernel (schedule/fire
 *    throughput, steady-state self-scheduling, and end-to-end
 *    simulated messages per second on a small workload);
 *  - the predictor suite measures pattern-table observe()/lookup
 *    throughput, the operation a DSM home performs on every incoming
 *    message.
 *
 * bench_core runs both suites and writes BENCH_core.json. Headline
 * metrics:
 *
 *   events_per_sec         = "eventq/throughput" items/sec
 *   lookups_per_sec        = "pred/observe_mix" items/sec
 *   sim_events_per_message = simEventsPerMessage() (a ratio, not a
 *                            rate: event dispatches per message on
 *                            the dense em3d run)
 */

#ifndef MSPDSM_BENCH_MICRO_SUITES_HH
#define MSPDSM_BENCH_MICRO_SUITES_HH

#include <vector>

#include "bench_common.hh"

namespace mspdsm::bench
{

/** Event-kernel and whole-system benches. */
std::vector<BenchResult> runSimSuite(const BenchOptions &opts);

/** Predictor-table benches. */
std::vector<BenchResult> runPredictorSuite(const BenchOptions &opts);

/** Pull a named result's items/sec (0 if absent). */
double itemsPerSec(const std::vector<BenchResult> &rs,
                   const std::string &name);

/**
 * Event-kernel dispatches per network message on the dense em3d
 * workload (one deterministic compiled run). The transport-efficiency
 * headline BENCH_core.json tracks: the retired two-stage NI path held
 * this at ~2.5; the batched event layer (per-destination drain,
 * local-delivery flush, per-home directory due-queues) holds it at
 * 1.652. check_bench_core.py fails any record above 1.75.
 */
double simEventsPerMessage();

} // namespace mspdsm::bench

#endif // MSPDSM_BENCH_MICRO_SUITES_HH
