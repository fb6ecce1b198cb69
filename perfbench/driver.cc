/**
 * @file
 * Benchmark driver: runs one named workload against libmspdsm's public
 * API (makeApp, CompiledWorkload, WorkloadCache, DsmSystem) and
 * streams raw, per-run records as JSON lines on stdout. Metric
 * derivation, output checks and the fingerprint live in metrics.py;
 * this program only measures.
 *
 * Phases of one invocation:
 *  1. setup: generate and compile every distinct workload of the
 *     sweep (one "setup" line each time), initialSetups times;
 *  2. a reference sweep, serial and untimed, that every later sweep is
 *     checked against; each cell prints a "start" line before it runs
 *     and a "run" line when it ends, so a driver that dies names the
 *     cell it died in. observe-depth adds one bare run per app with no
 *     observers ("ablation" lines);
 *  3. timed sweeps, back to back (closed loop) until --seconds have
 *     passed ("sweep" lines carry wall time and simulated op counts),
 *     each followed by one more set-up.
 *     With --trace 1 an untraced and a traced sweep alternate, and the
 *     traced one records spans around every call into the library;
 *     the spans are kept in memory and written to --spans at the end.
 *
 * Output lines are written only between timed regions.
 */

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.hh"
#include "dsm/system.hh"
#include "harness/workload_cache.hh"
#include "workload/compiled_trace.hh"
#include "workload/suite.hh"

using namespace mspdsm;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

/**
 * Set-ups before the reference sweep. One more follows every timed
 * sweep, so that set-up, like the sweeps, is timed across the run.
 */
constexpr unsigned initialSetups = 3;

/**
 * Spreads the serial work over every CPU the driver may use. On a
 * shared host one CPU can run 30% slower than the others for tens of
 * seconds (a busy sibling hyperthread of another tenant); a serial
 * run left on it would be slow from start to end. Moving the driver
 * to the next CPU before each serial run makes every sweep and every
 * set-up sample each CPU, so no single CPU decides a run.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof(all_), &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
    }

    /** Move the calling thread to the next CPU. */
    void next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    /** Let the calling thread, and threads it starts, use every CPU. */
    void release()
    {
        if (cpus_.size() >= 2)
            sched_setaffinity(0, sizeof(all_), &all_);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

CpuRotation cpuRotation;

/**
 * Peak resident set of this process, KiB, from VmHWM in
 * /proc/self/status; -1 if it cannot be read. getrusage's ru_maxrss is
 * no use here: Linux carries it over from the parent across fork and
 * exec, so it reports the runner's own peak whenever that is larger.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atol(line.c_str() + 6);
    return -1;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    const char *name;
    double start;
    double end;
    std::uint64_t id;
    std::uint64_t parent; //!< 0 = root
    long run;             //!< cell index; -1 outside a simulation run
};

std::atomic<std::uint64_t> nextSpanId{1};

/**
 * Records one span into @p sink on destruction; with a null sink it
 * does nothing but read no clock, so untraced sweeps pay one branch.
 */
class ScopedSpan
{
  public:
    ScopedSpan(std::vector<Span> *sink, const char *name,
               std::uint64_t parent, long run)
        : sink_(sink), name_(name), parent_(parent), run_(run)
    {
        if (sink_) {
            id_ = nextSpanId.fetch_add(1, std::memory_order_relaxed);
            start_ = now();
        }
    }

    ~ScopedSpan()
    {
        if (sink_)
            sink_->push_back({name_, start_, now(), id_, parent_, run_});
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    std::vector<Span> *sink_;
    const char *name_;
    std::uint64_t parent_;
    long run_;
    std::uint64_t id_ = 0;
    double start_ = 0.0;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class CellKind
{
    Spec,     //!< VMSP depth 1 driving Base/FR/SWI (Figure 9)
    Accuracy, //!< Base-DSM with Cosmos/MSP/VMSP observers (Figs 7-8)
    Bare,     //!< Base-DSM, no predictor at all (observer ablation)
};

struct Cell
{
    std::string app;
    CellKind kind = CellKind::Spec;
    SpecMode mode = SpecMode::None;
    std::size_t depth = 1;
    unsigned procs = 16;
    TopoConfig topo = {};
    bool faulted = false;
};

struct WorkloadSpec
{
    double scale = 2.0;
    unsigned iters = 0; //!< 0 = application default
    bool parallel = false;
    std::vector<Cell> cells;
};

const char *
modeName(SpecMode m)
{
    switch (m) {
      case SpecMode::None:
        return "base";
      case SpecMode::FirstRead:
        return "fr";
      case SpecMode::SwiFirstRead:
        return "swi";
    }
    return "?";
}

const char *
kindName(CellKind k)
{
    switch (k) {
      case CellKind::Spec:
        return "spec";
      case CellKind::Accuracy:
        return "accuracy";
      case CellKind::Bare:
        return "bare";
    }
    return "?";
}

constexpr SpecMode allModes[] = {SpecMode::None, SpecMode::FirstRead,
                                 SpecMode::SwiFirstRead};
constexpr std::size_t allDepths[] = {1, 2, 4};

/** @return false on an unknown workload name. */
bool
makeWorkload(const std::string &name, WorkloadSpec &ws)
{
    if (name == "paper-spec") {
        ws.iters = 20;
        for (const AppInfo &info : appSuite())
            for (SpecMode m : allModes)
                ws.cells.push_back({info.name, CellKind::Spec, m});
    } else if (name == "observe-depth") {
        for (const AppInfo &info : appSuite())
            for (std::size_t d : allDepths)
                ws.cells.push_back(
                    {info.name, CellKind::Accuracy, SpecMode::None, d});
    } else if (name == "mesh-faults") {
        for (const char *app : {"em3d", "unstructured"})
            for (TopoKind t : {TopoKind::Mesh2D, TopoKind::Torus2D})
                for (SpecMode m :
                     {SpecMode::None, SpecMode::SwiFirstRead})
                    for (bool f : {false, true})
                        ws.cells.push_back({app, CellKind::Spec, m, 1, 32,
                                            TopoConfig{t, 80}, f});
    } else if (name == "sweep-parallel") {
        ws.scale = 1.0;
        ws.parallel = true;
        for (const AppInfo &info : appSuite()) {
            for (SpecMode m : allModes)
                ws.cells.push_back({info.name, CellKind::Spec, m});
            for (std::size_t d : allDepths)
                ws.cells.push_back(
                    {info.name, CellKind::Accuracy, SpecMode::None, d});
        }
    } else {
        return false;
    }
    return true;
}

/**
 * One-line reason @p ws is inside a known-defect envelope, or "" when
 * it is safe to run. Both defects escape the tick-limit guard: one
 * hangs in generation, the other exits from deep inside the layout.
 */
std::string
rejectReason(const WorkloadSpec &ws)
{
    char buf[160];
    if (!(ws.scale > 0.0)) {
        std::snprintf(buf, sizeof(buf), "scale %g must be positive",
                      ws.scale);
        return buf;
    }
    if (ws.scale >= 3.0) {
        std::snprintf(buf, sizeof(buf),
                      "scale %g >= 3 dies in Layout::allocAt (regions "
                      "above one page)",
                      ws.scale);
        return buf;
    }
    for (const Cell &c : ws.cells) {
        if (c.procs == 0 || c.procs > 61) {
            std::snprintf(buf, sizeof(buf),
                          "%u nodes is outside the supported 1..61",
                          c.procs);
            return buf;
        }
        if (c.app == "barnes" && c.procs <= 3) {
            std::snprintf(buf, sizeof(buf),
                          "barnes with %u procs hangs in generation "
                          "(needs >= 4)",
                          c.procs);
            return buf;
        }
    }
    return "";
}

AppParams
appParams(const WorkloadSpec &ws, const Cell &c, std::uint64_t seed)
{
    AppParams p;
    p.numProcs = c.procs;
    p.scale = ws.scale;
    p.iterations = ws.iters;
    p.seed = seed;
    p.proto.numNodes = c.procs;
    return p;
}

/** The machine a cell simulates, as the harness experiments build it. */
DsmConfig
machineConfig(const Cell &c, std::uint64_t seed, Tick netJitter)
{
    DsmConfig cfg;
    cfg.proto.numNodes = c.procs;
    cfg.proto.seed = seed;
    cfg.proto.netJitter = netJitter;
    cfg.proto.topo = c.topo;
    if (c.faulted) {
        // One fail-stop with fail-back, replicated shards, and a loss
        // window on link 3 that overlaps the outage.
        cfg.faults.events = {{45000, 5, FaultKind::Kill},
                             {75000, 5, FaultKind::Restart}};
        cfg.faults.replicateShards = true;
        cfg.faults.linkLoss = {{20000, 60000, 3, 5}};
    }
    switch (c.kind) {
      case CellKind::Spec:
        cfg.pred = PredKind::Vmsp;
        cfg.historyDepth = 1;
        cfg.spec = c.mode;
        break;
      case CellKind::Accuracy:
        cfg.observers = {{PredKind::Cosmos, c.depth},
                         {PredKind::Msp, c.depth},
                         {PredKind::Vmsp, c.depth}};
        break;
      case CellKind::Bare:
        break;
    }
    return cfg;
}

// ---------------------------------------------------------------------
// Runs and their records
// ---------------------------------------------------------------------

using WorkloadKey = std::pair<std::string, unsigned>; // app, procs
using CompiledSet =
    std::map<WorkloadKey, std::shared_ptr<const CompiledWorkload>>;

struct JobResult
{
    std::string record; //!< JSON object of simulated counters
    std::uint64_t sourceOps = 0;
    std::vector<Span> spans;
};

void
appendField(std::string &out, const char *key, std::uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", key,
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
appendField(std::string &out, const char *key, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", key, v);
    out += buf;
}

std::string
predJson(const char *name, std::size_t depth, const PredStats &s,
         const StorageReport &st)
{
    std::string out = "{\"name\":\"";
    out += name;
    out += "\"";
    appendField(out, "depth", std::uint64_t{depth});
    appendField(out, "observed", s.observed.value());
    appendField(out, "predicted", s.predicted.value());
    appendField(out, "correct", s.correct.value());
    appendField(out, "pte_total", st.pteTotal);
    appendField(out, "blocks", st.blocksAllocated);
    appendField(out, "bytes_per_block", st.avgBytesPerBlock);
    out += "}";
    return out;
}

/** Every simulated counter of one finished run, as one JSON object. */
std::string
aggregate(DsmSystem &sys, const DsmConfig &cfg, const RunResult &r)
{
    std::uint64_t readHits = 0, writeHits = 0, demandReads = 0,
                  demandWrites = 0, reqs = 0, invals = 0, recalls = 0;
    for (NodeId n = 0; n < cfg.proto.numNodes; ++n) {
        const CacheStats &cs = sys.cache(n).stats();
        readHits += cs.readHits.value();
        writeHits += cs.writeHits.value();
        demandReads += cs.demandReads.value();
        demandWrites += cs.demandWrites.value();
        const DirStats &ds = sys.directory(n).stats();
        reqs += ds.reqGetS.value() + ds.reqGetX.value() +
                ds.reqUpgrade.value();
        invals += ds.invals.value();
        recalls += ds.recalls.value();
    }

    std::string out = "{\"status\":\"";
    out += r.completed() ? "completed" : "tick_limit";
    out += "\"";
    appendField(out, "exec_ticks", std::uint64_t{r.execTicks});
    appendField(out, "avg_request_wait", r.avgRequestWait);
    appendField(out, "avg_mem_wait", r.avgMemWait);
    appendField(out, "reads", r.reads);
    appendField(out, "writes", r.writes);
    appendField(out, "messages", r.messages);
    appendField(out, "events", r.eventsDispatched);
    appendField(out, "barrier_episodes", r.barrierEpisodes);
    appendField(out, "queueing_cycles", r.queueingCycles);
    appendField(out, "link_queueing_cycles", r.linkQueueingCycles);
    appendField(out, "read_hits", readHits);
    appendField(out, "write_hits", writeHits);
    appendField(out, "demand_reads", demandReads);
    appendField(out, "demand_writes", demandWrites);
    appendField(out, "dir_requests", reqs);
    appendField(out, "invals", invals);
    appendField(out, "recalls", recalls);
    appendField(out, "spec_sent_fr", r.specSentFr);
    appendField(out, "spec_sent_swi", r.specSentSwi);
    appendField(out, "spec_served_fr", r.specServedFr);
    appendField(out, "spec_served_swi", r.specServedSwi);
    appendField(out, "spec_dropped", r.specDropped);
    appendField(out, "swi_sent", r.swiSent);
    appendField(out, "swi_premature", r.swiPremature);
    appendField(out, "swi_suppressed", r.swiSuppressed);
    const FaultOutcome &f = r.fault;
    appendField(out, "retries", f.retries);
    appendField(out, "nacks", f.nacksSeen);
    appendField(out, "timeouts", f.timeouts);
    appendField(out, "stale_fills", f.staleFills);
    appendField(out, "rehome_syncs", f.rehomeSyncs);
    appendField(out, "shard_syncs", f.shardSyncs);
    appendField(out, "shard_deltas", f.shardDeltas);
    appendField(out, "link_drops", f.linkDrops);
    appendField(out, "retransmits", f.retransmits);
    appendField(out, "ops_at_end", f.opsAtEnd);

    out += ",\"miss_lat\":[";
    bool first = true;
    for (unsigned i = 0; i < Histogram::numBuckets; ++i) {
        const std::uint64_t n = r.missLat.bucket(i);
        if (!n)
            continue;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s[%u,%llu]", first ? "" : ",",
                      i, static_cast<unsigned long long>(n));
        out += buf;
        first = false;
    }
    out += "],\"preds\":[";
    first = true;
    if (cfg.pred != PredKind::None) {
        out += predJson(predKindName(cfg.pred), cfg.historyDepth, r.pred,
                        r.storage);
        first = false;
    }
    for (const ObserverResult &o : r.observers) {
        if (!first)
            out += ",";
        out += predJson(o.name.c_str(), o.depth, o.stats, o.storage);
        first = false;
    }
    out += "]}";
    return out;
}

/**
 * Build, run and aggregate one cell. The compiled workload comes from
 * @p compiled, or -- for the parallel sweep, whose first touch is part
 * of what it measures -- from the process-wide WorkloadCache.
 */
JobResult
runCell(const WorkloadSpec &ws, const Cell &c, long run,
        std::uint64_t seed, const CompiledSet *compiled, bool traced,
        std::uint64_t parent)
{
    JobResult jr;
    std::vector<Span> *sink = traced ? &jr.spans : nullptr;
    ScopedSpan job(sink, "harness.job", parent, run);
    std::shared_ptr<const CompiledWorkload> cw;
    if (compiled) {
        cw = compiled->at({c.app, c.procs});
    } else {
        ScopedSpan s(sink, "harness.cache_get", job.id(), run);
        cw = WorkloadCache::get(c.app, appParams(ws, c, seed));
    }
    const DsmConfig cfg = machineConfig(c, seed, cw->netJitter());
    std::unique_ptr<DsmSystem> sys;
    {
        ScopedSpan s(sink, "dsm.build", job.id(), run);
        sys = std::make_unique<DsmSystem>(cfg);
    }
    RunResult r;
    {
        ScopedSpan s(sink, "dsm.run", job.id(), run);
        r = sys->run(*cw);
    }
    {
        ScopedSpan s(sink, "harness.aggregate", job.id(), run);
        jr.record = aggregate(*sys, cfg, r);
    }
    jr.sourceOps = cw->sourceOps();
    return jr;
}

struct SweepResult
{
    double wall = 0.0;
    std::uint64_t sourceOps = 0;
    unsigned jobs = 1;
    WorkloadCacheStats cache;
    std::vector<JobResult> jobsOut;
    std::vector<Span> spans;
};

/** One timed pass over every cell of the workload. */
SweepResult
sweep(const WorkloadSpec &ws, std::uint64_t seed,
      const CompiledSet &compiled, unsigned jobs, bool traced)
{
    SweepResult sr;
    sr.jobs = jobs;
    const std::size_t n = ws.cells.size();
    sr.jobsOut.resize(n);
    std::vector<Span> *sink = traced ? &sr.spans : nullptr;
    // As the sweep binaries do it: a fresh pool, an empty cache, every
    // job racing for its workload's first touch.
    if (jobs > 1)
        WorkloadCache::clear();
    const double t0 = now();
    {
        ScopedSpan root(sink, "harness.sweep", 0, -1);
        if (jobs <= 1) {
            for (std::size_t i = 0; i < n; ++i) {
                cpuRotation.next();
                sr.jobsOut[i] = runCell(ws, ws.cells[i], long(i), seed,
                                        &compiled, traced, root.id());
            }
        } else {
            cpuRotation.release();
            ThreadPool pool(jobs);
            std::vector<std::future<JobResult>> futs;
            futs.reserve(n);
            const std::uint64_t rootId = root.id();
            for (std::size_t i = 0; i < n; ++i)
                futs.push_back(pool.submit([&ws, i, seed, traced, rootId] {
                    return runCell(ws, ws.cells[i], long(i), seed,
                                   nullptr, traced, rootId);
                }));
            for (std::size_t i = 0; i < n; ++i)
                sr.jobsOut[i] = futs[i].get();
        }
    }
    sr.wall = now() - t0;
    if (jobs > 1)
        sr.cache = WorkloadCache::stats();
    for (JobResult &jr : sr.jobsOut) {
        sr.sourceOps += jr.sourceOps;
        sr.spans.insert(sr.spans.end(), jr.spans.begin(), jr.spans.end());
        jr.spans.clear();
    }
    return sr;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/**
 * One run record: "start" before the cell runs (no counters), "run"
 * when it has finished. A cell's identity is the same in both.
 */
void
emitCell(const char *type, const char *phase, long sweepIdx,
         std::size_t cell, const Cell &c, const JobResult *jr)
{
    std::printf("{\"type\":\"%s\",\"phase\":\"%s\",\"sweep\":%ld,"
                "\"cell\":%zu,\"app\":\"%s\",\"kind\":\"%s\","
                "\"mode\":\"%s\",\"depth\":%zu,\"procs\":%u,"
                "\"topology\":\"%s\",\"faulted\":%s",
                type, phase, sweepIdx, cell, c.app.c_str(),
                kindName(c.kind), modeName(c.mode), c.depth, c.procs,
                topoKindName(c.topo.kind), c.faulted ? "true" : "false");
    if (jr)
        std::printf(",\"counters\":%s", jr->record.c_str());
    std::printf("}\n");
}

void
emitRun(const char *phase, long sweepIdx, std::size_t cell,
        const Cell &c, const JobResult &jr)
{
    emitCell("run", phase, sweepIdx, cell, c, &jr);
}

/** A serial, untimed run of one cell whose records are printed (and
 *  flushed) as it starts and as it ends. */
JobResult
runStreamed(const char *phase, long sweepIdx, const WorkloadSpec &ws,
            const Cell &c, std::size_t cell, std::uint64_t seed,
            const CompiledSet &compiled, bool traced, std::uint64_t parent)
{
    emitCell("start", phase, sweepIdx, cell, c, nullptr);
    std::fflush(stdout);
    cpuRotation.next();
    JobResult jr =
        runCell(ws, c, long(cell), seed, &compiled, traced, parent);
    emitRun(phase, sweepIdx, cell, c, jr);
    std::fflush(stdout);
    return jr;
}

void
emitSweep(const char *phase, long idx, const SweepResult &sr,
          const WorkloadSpec &ws)
{
    std::printf("{\"type\":\"sweep\",\"phase\":\"%s\",\"sweep\":%ld,"
                "\"wall_s\":%.9f,\"source_ops\":%llu,"
                "\"runs\":%zu,\"jobs\":%u,\"cache_generations\":%llu,"
                "\"cache_hits\":%llu}\n",
                phase, idx, sr.wall,
                static_cast<unsigned long long>(sr.sourceOps),
                ws.cells.size(), sr.jobs,
                static_cast<unsigned long long>(sr.cache.generations),
                static_cast<unsigned long long>(sr.cache.hits));
    for (std::size_t i = 0; i < sr.jobsOut.size(); ++i)
        emitRun(phase, idx, i, ws.cells[i], sr.jobsOut[i]);
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                      "\"id\":%llu,\"parent\":%llu,\"run\":%ld}%s\n",
                      s.name, s.start, s.end,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent), s.run,
                      i + 1 < spans.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
    return static_cast<bool>(os);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--spans FILE]\n"
                 "       [--scale X] [--procs N]\n"
                 "workloads: paper-spec observe-depth mesh-faults "
                 "sweep-parallel\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0;
    unsigned procs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        if (arg == "--workload")
            workload = v;
        else if (arg == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(v);
        else if (arg == "--trace")
            trace = std::atoi(v) != 0;
        else if (arg == "--spans")
            spansPath = v;
        else if (arg == "--scale")
            scale = std::atof(v);
        else if (arg == "--procs")
            procs = static_cast<unsigned>(std::atoi(v));
        else
            usage(("unknown option " + arg).c_str());
    }

    WorkloadSpec ws;
    if (!makeWorkload(workload, ws))
        usage(("unknown workload '" + workload + "'").c_str());
    if (scale != 0.0)
        ws.scale = scale;
    if (procs)
        for (Cell &c : ws.cells)
            c.procs = procs;
    if (const std::string why = rejectReason(ws); !why.empty()) {
        std::fprintf(stderr, "perfbench_driver: rejected config: %s\n",
                     why.c_str());
        return 2;
    }
    if (trace && spansPath.empty())
        usage("--trace 1 needs --spans FILE");

    std::vector<Span> spans;
    std::vector<Span> *sink = trace ? &spans : nullptr;

    // 1. Setup: generation and compilation of every distinct workload,
    // into a fresh set that replaces the last one (generation is
    // deterministic, and every sweep is checked against the reference).
    CompiledSet compiled;
    long setups = 0;
    auto setUp = [&] {
        compiled.clear();
        double genS = 0.0, compileS = 0.0;
        std::uint64_t srcOps = 0, packedOps = 0;
        const double t0 = now();
        {
            ScopedSpan root(sink, "setup", 0, -1);
            for (const Cell &c : ws.cells) {
                auto &slot = compiled[{c.app, c.procs}];
                if (slot)
                    continue;
                const AppParams p = appParams(ws, c, seed);
                cpuRotation.next();
                const double g0 = now();
                Workload w;
                {
                    ScopedSpan s(sink, "workload.gen", root.id(), -1);
                    w = makeApp(c.app, p);
                }
                const double c0 = now();
                {
                    ScopedSpan s(sink, "workload.compile", root.id(), -1);
                    slot = std::make_shared<const CompiledWorkload>(
                        w, AddrMap(p.proto));
                }
                const double c1 = now();
                genS += c0 - g0;
                compileS += c1 - c0;
                srcOps += slot->sourceOps();
                packedOps += slot->totalOps();
            }
        }
        const double total = now() - t0;
        std::printf("{\"type\":\"setup\",\"rep\":%ld,\"seconds\":%.9f,"
                    "\"gen_s\":%.9f,\"compile_s\":%.9f,"
                    "\"source_ops\":%llu,\"compiled_ops\":%llu,"
                    "\"workloads\":%zu}\n",
                    setups++, total, genS, compileS,
                    static_cast<unsigned long long>(srcOps),
                    static_cast<unsigned long long>(packedOps),
                    compiled.size());
        std::fflush(stdout);
    };
    for (unsigned rep = 0; rep < initialSetups; ++rep)
        setUp();

    // 2. Reference sweep (serial, untimed) plus observer ablation.
    // The observer ablation: each app once more with no observers at
    // all. Observers are passive by contract, so the pair must agree
    // on every protocol counter and differ only in host time. The
    // bare run carries the index of the app's first cell as its id.
    const bool ablate = workload == "observe-depth";
    auto runAblation = [&](long idx, bool traced) {
        ScopedSpan root(traced ? &spans : nullptr, "ablation", 0, -1);
        std::map<std::string, bool> done;
        for (std::size_t i = 0; i < ws.cells.size(); ++i) {
            if (std::exchange(done[ws.cells[i].app], true))
                continue;
            Cell bare = ws.cells[i];
            bare.kind = CellKind::Bare;
            JobResult jr = runStreamed("ablation", idx, ws, bare, i, seed,
                                       compiled, traced, root.id());
            spans.insert(spans.end(), jr.spans.begin(), jr.spans.end());
        }
    };
    std::printf("{\"type\":\"sweep\",\"phase\":\"ref\",\"sweep\":-1,"
                "\"runs\":%zu,\"jobs\":1}\n",
                ws.cells.size());
    for (std::size_t i = 0; i < ws.cells.size(); ++i)
        runStreamed("ref", -1, ws, ws.cells[i], i, seed, compiled, false,
                    0);
    if (ablate)
        runAblation(-1, false);

    // 3. Timed sweeps, closed loop.
    const unsigned jobs = ws.parallel ? ThreadPool::defaultThreads() : 1;
    const double deadline = now() + seconds;
    long idx = 0;
    do {
        const SweepResult sr = sweep(ws, seed, compiled, jobs, false);
        emitSweep("timed", idx, sr, ws);
        if (trace) {
            SweepResult tr = sweep(ws, seed, compiled, jobs, true);
            emitSweep("traced", idx, tr, ws);
            spans.insert(spans.end(), tr.spans.begin(), tr.spans.end());
            if (ablate)
                runAblation(idx, true);
        }
        setUp();
        ++idx;
    } while (now() < deadline);

    const long peakKb = peakRssKb();
    if (peakKb <= 0) {
        std::fprintf(stderr, "perfbench_driver: cannot read VmHWM from "
                             "/proc/self/status\n");
        return 1;
    }
    if (trace && !writeSpans(spansPath, spans)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     spansPath.c_str());
        return 1;
    }
    std::printf("{\"type\":\"end\",\"peak_rss_kb\":%ld,\"jobs\":%u,"
                "\"spans\":%zu}\n",
                peakKb, jobs, spans.size());
    return 0;
}
