#include "harness/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <ostream>
#include <utility>

#include "base/logging.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "harness/workload_cache.hh"
#include "topo/topology.hh"

namespace mspdsm
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Execute one job, timing it on its worker. */
SweepRecord
executeJob(const std::string &label, const std::string &app,
           const std::string &kind, const std::string &topology,
           const std::function<RunResult()> &run)
{
    SweepRecord rec;
    rec.label = label;
    rec.app = app;
    rec.kind = kind;
    rec.topology = topology;
    const auto t0 = Clock::now();
    rec.result = run();
    rec.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return rec;
}

/** Minimal JSON string escape (labels are plain but be safe). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const char *
statusName(RunStatus s)
{
    return s == RunStatus::Completed ? "completed" : "tick_limit";
}

} // namespace

SweepRunner::SweepRunner(unsigned jobs)
    : threads_(jobs ? jobs : ThreadPool::defaultThreads())
{
}

std::size_t
SweepRunner::add(std::string label, std::function<RunResult()> run,
                 std::string topology)
{
    panic_if(ran_, "SweepRunner::add after results()");
    Job j;
    j.label = std::move(label);
    j.kind = "custom";
    j.topology = std::move(topology);
    j.run = std::move(run);
    jobs_.push_back(std::move(j));
    return jobs_.size() - 1;
}

namespace
{

/** Label suffix for a non-default topology, "" for the crossbar --
 * so every pre-topology sweep's output stays byte-identical. */
std::string
topoSuffix(const ExperimentConfig &ec)
{
    if (ec.topo.kind == TopoKind::Crossbar)
        return "";
    return std::string(" @") + topoKindName(ec.topo.kind);
}

} // namespace

std::size_t
SweepRunner::addAccuracy(const std::string &app, std::size_t depth,
                         const ExperimentConfig &ec)
{
    panic_if(ran_, "SweepRunner::add after results()");
    Job j;
    j.label = app + " acc d=" + std::to_string(depth) + topoSuffix(ec);
    j.app = app;
    j.kind = "accuracy";
    j.topology = topoKindName(ec.topo.kind);
    // Capture by value: the job owns its full configuration, so the
    // run is seeded identically no matter which worker executes it.
    j.run = [app, depth, ec] { return runAccuracy(app, depth, ec); };
    jobs_.push_back(std::move(j));
    return jobs_.size() - 1;
}

std::size_t
SweepRunner::addSpec(const std::string &app, SpecMode mode,
                     const ExperimentConfig &ec)
{
    panic_if(ran_, "SweepRunner::add after results()");
    Job j;
    j.label = app + " " + specModeName(mode) + topoSuffix(ec);
    j.app = app;
    j.kind = "spec";
    j.topology = topoKindName(ec.topo.kind);
    j.run = [app, mode, ec] { return runSpec(app, mode, ec); };
    jobs_.push_back(std::move(j));
    return jobs_.size() - 1;
}

const std::vector<SweepRecord> &
SweepRunner::results()
{
    if (ran_)
        return records_;
    ran_ = true;

    const auto t0 = Clock::now();
    records_.reserve(jobs_.size());
    if (threads_ <= 1 || jobs_.size() <= 1) {
        for (const Job &j : jobs_)
            records_.push_back(
                executeJob(j.label, j.app, j.kind, j.topology, j.run));
    } else {
        // No more workers than queued runs; the record still reports
        // the requested job count.
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(threads_, jobs_.size())));
        std::vector<std::future<SweepRecord>> futs;
        futs.reserve(jobs_.size());
        for (const Job &j : jobs_) {
            futs.push_back(pool.submit([&j] {
                return executeJob(j.label, j.app, j.kind, j.topology,
                                  j.run);
            }));
        }
        // Gather in submission order regardless of completion order.
        for (std::future<SweepRecord> &f : futs)
            records_.push_back(f.get());
    }
    wallSeconds_ = std::chrono::duration<double>(Clock::now() - t0).count();
    jobs_.clear();
    return records_;
}

std::size_t
SweepRunner::guardTrips()
{
    std::size_t n = 0;
    for (const SweepRecord &r : results())
        if (!r.result.completed())
            ++n;
    return n;
}

void
SweepRunner::printSummary(std::ostream &os)
{
    results();
    // No wall-time columns here: bench stdout must be byte-identical
    // across repeated runs (the repo's determinism invariant); the
    // per-run and sweep timings live in the JSON record instead.
    Table t({"run", "kind", "status", "ticks", "msgs"});
    for (const SweepRecord &r : records_) {
        t.addRow({r.label, r.kind,
                  r.result.completed() ? "ok" : "TICK-LIMIT",
                  Table::fmt(r.result.execTicks),
                  Table::fmt(r.result.messages)});
    }
    t.print(os);
}

void
SweepRunner::writeJson(std::ostream &os, const std::string &tool)
{
    results();
    // Workload-cache observability: a sweep over N configurations of
    // one (app, params) must show one generation and N-1 hits here
    // (the counters are process-wide; bench binaries run one sweep
    // per process).
    const WorkloadCacheStats wc = WorkloadCache::stats();
    os << "{\n  \"schema\": \"mspdsm-sweep-v1\",\n";
    os << "  \"tool\": \"" << jsonEscape(tool) << "\",\n";
    os << "  \"jobs\": " << threads_ << ",\n";
    os << "  \"wall_seconds\": " << wallSeconds_ << ",\n";
    os << "  \"workload_generations\": " << wc.generations << ",\n";
    os << "  \"workload_cache_hits\": " << wc.hits << ",\n";
    os << "  \"workload_gen_failures\": " << wc.failures << ",\n";
    os << "  \"workload_gen_seconds\": " << wc.genSeconds << ",\n";
    os << "  \"workload_bytes\": " << wc.compiledBytes << ",\n";
    os << "  \"guard_trips\": " << guardTrips() << ",\n";
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SweepRecord &r = records_[i];
        const RunResult &res = r.result;
        os << "    {\"label\": \"" << jsonEscape(r.label)
           << "\", \"app\": \"" << jsonEscape(r.app)
           << "\", \"kind\": \"" << r.kind
           << "\", \"topology\": \"" << jsonEscape(r.topology)
           << "\", \"status\": \"" << statusName(res.status)
           << "\", \"tick_limit\": "
           << (res.completed() ? "false" : "true")
           << ", \"exec_ticks\": " << res.execTicks
           << ", \"messages\": " << res.messages
           // Transport efficiency; additive mspdsm-sweep-v1 fields
           // (the event floor the batched NI drain attacks).
           << ", \"events_dispatched\": " << res.eventsDispatched
           << ", \"events_per_message\": " << res.eventsPerMessage()
           << ", \"reads\": " << res.reads
           << ", \"writes\": " << res.writes
           // Interconnect contention; additive mspdsm-sweep-v1 fields
           // (zero on an uncontended fabric, never omitted).
           << ", \"queueing_cycles\": " << res.queueingCycles
           << ", \"link_queueing_cycles\": " << res.linkQueueingCycles
           // Fault/recovery outcome; uniform schema, all-zero with
           // "faulted": false when the run had no fault plan.
           << ", \"faulted\": "
           << (res.fault.faulted ? "true" : "false")
           << ", \"kill_tick\": " << res.fault.killTick
           << ", \"restart_tick\": " << res.fault.restartTick
           << ", \"recovered_tick\": " << res.fault.recoveredTick
           << ", \"ops_at_kill\": " << res.fault.opsAtKill
           << ", \"ops_at_restart\": " << res.fault.opsAtRestart
           << ", \"stale_dropped\": " << res.fault.staleDropped
           << ", \"dead_dropped\": " << res.fault.deadDropped
           << ", \"nacks_sent\": " << res.fault.nacksSent
           << ", \"rehome_syncs\": " << res.fault.rehomeSyncs
           << ", \"retries\": " << res.fault.retries
           << ", \"nacks_seen\": " << res.fault.nacksSeen
           << ", \"timeouts\": " << res.fault.timeouts
           << ", \"stale_fills\": " << res.fault.staleFills
           << ", \"dir_aborts\": " << res.fault.dirAborts
           // Robustness-layer counters (shard replication, fail-back,
           // lossy-link transport); same uniform always-emitted rule.
           << ", \"shard_deltas\": " << res.fault.shardDeltas
           << ", \"shard_syncs\": " << res.fault.shardSyncs
           << ", \"failbacks\": " << res.fault.failbacks
           << ", \"misrouted_dropped\": "
           << res.fault.misroutedDropped
           << ", \"link_drops\": " << res.fault.linkDrops
           << ", \"retransmits\": " << res.fault.retransmits
           // Always-on demand-miss latency distribution (tail shape
           // the mean hides); additive, zero in traffic-free runs.
           << ", \"miss_lat_p50\": " << res.missLatP50
           << ", \"miss_lat_p90\": " << res.missLatP90
           << ", \"miss_lat_p99\": " << res.missLatP99
           // Interval time-series (gated sampler; interval 0 and an
           // empty array when the run was not sampled).
           << ", \"series_interval\": " << res.seriesInterval
           << ", \"series\": [";
        for (std::size_t k = 0; k < res.series.size(); ++k) {
            const IntervalSample &s = res.series[k];
            os << (k ? ", " : "") << "{\"tick\": " << s.tick
               << ", \"ops\": " << s.ops
               << ", \"messages\": " << s.messages
               << ", \"events\": " << s.eventsDispatched
               << ", \"pred_lookups\": " << s.predLookups
               << ", \"pred_hits\": " << s.predHits
               << ", \"outstanding_misses\": " << s.outstandingMisses
               << ", \"retransmits_in_flight\": "
               << s.retransmitsInFlight << "}";
        }
        os << "]"
           << ", \"seconds\": " << r.seconds << "}"
           << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

bool
SweepRunner::writeJsonFile(const std::string &path,
                           const std::string &tool)
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJson(f, tool);
    return true;
}

} // namespace mspdsm
