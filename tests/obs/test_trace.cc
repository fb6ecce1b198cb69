/** @file Observability layer: trace-JSON round trip (balanced spans,
 * paired flow arrows, tick-window filtering), inertness of the gated
 * instruments, the interval time-series bracketing a fault outage,
 * and the always-on latency histograms' tail under link loss.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hh"

using namespace mspdsm;

namespace
{

ExperimentConfig
tiny()
{
    ExperimentConfig ec;
    ec.scale = 0.25;
    ec.iterations = 2;
    return ec;
}

/** One parsed trace record (only the fields the checks need). */
struct TraceEvent
{
    std::string name;
    char ph = '?';
    unsigned tid = 0;
    std::uint64_t ts = 0;
    std::uint64_t id = 0;  //!< flow id (ph s/f only)
    bool hasTs = false;
    bool hasId = false;
};

/** Extract the string value of @p key from a single-line record. */
std::string
strField(const std::string &line, const std::string &key)
{
    const std::string pat = "\"" + key + "\":\"";
    const auto p = line.find(pat);
    if (p == std::string::npos)
        return "";
    const auto q = line.find('"', p + pat.size());
    return line.substr(p + pat.size(), q - p - pat.size());
}

/** Extract the numeric value of @p key; @p found reports presence. */
std::uint64_t
numField(const std::string &line, const std::string &key, bool &found)
{
    const std::string pat = "\"" + key + "\":";
    const auto p = line.find(pat);
    found = p != std::string::npos;
    if (!found)
        return 0;
    return std::strtoull(line.c_str() + p + pat.size(), nullptr, 10);
}

/**
 * Line-oriented parse of the emitted trace file: one record per line,
 * trailing commas stripped, metadata (ph M) records skipped. Fails
 * the test on any structural surprise.
 */
std::vector<TraceEvent>
parseTrace(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    std::vector<std::string> lines;
    for (std::string line; std::getline(f, line);)
        if (!line.empty())
            lines.push_back(line);
    EXPECT_GE(lines.size(), 2u);
    EXPECT_EQ(lines.front(), "{\"traceEvents\":[");
    EXPECT_EQ(lines.back(), "]}");

    std::vector<TraceEvent> evs;
    for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
        std::string line = lines[i];
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        EXPECT_TRUE(line.front() == '{' && line.back() == '}')
            << line;
        TraceEvent e;
        e.name = strField(line, "name");
        const std::string ph = strField(line, "ph");
        EXPECT_EQ(ph.size(), 1u) << line;
        e.ph = ph.empty() ? '?' : ph[0];
        bool found = false;
        e.tid = static_cast<unsigned>(numField(line, "tid", found));
        e.ts = numField(line, "ts", e.hasTs);
        e.id = numField(line, "id", e.hasId);
        if (e.ph == 'M')
            continue; // metadata carries no ts; not an event
        EXPECT_TRUE(e.hasTs) << line;
        evs.push_back(e);
    }
    return evs;
}

} // namespace

TEST(Trace, RoundTripBalancedAndPaired)
{
    const std::string path = testing::TempDir() + "mspdsm_trace.json";
    ExperimentConfig ec = tiny();
    ec.tracePath = path;
    const RunResult traced =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(traced.status, RunStatus::Completed);

    // The tracer is read-only: the traced run matches the golden
    // fixed-seed numbers (tests/integration/test_golden.cc) exactly.
    EXPECT_EQ(traced.execTicks, 120022u);
    EXPECT_EQ(traced.messages, 1984u);

    const std::vector<TraceEvent> evs = parseTrace(path);
    ASSERT_FALSE(evs.empty());

    // B/E spans balance and never nest on one track (one MSHR per
    // node); flow arrows pair 1:1 by id, start before they finish.
    std::map<unsigned, int> depth;
    std::map<std::uint64_t, std::uint64_t> flowStart;
    std::set<std::uint64_t> flowDone;
    std::size_t spans = 0, flows = 0, instants = 0;
    for (const TraceEvent &e : evs) {
        switch (e.ph) {
          case 'B':
            EXPECT_EQ(depth[e.tid], 0) << "nested span on tid "
                                       << e.tid;
            ++depth[e.tid];
            ++spans;
            break;
          case 'E':
            EXPECT_EQ(depth[e.tid], 1) << "E without B on tid "
                                       << e.tid;
            --depth[e.tid];
            break;
          case 's':
            ASSERT_TRUE(e.hasId);
            EXPECT_FALSE(flowStart.count(e.id)) << "flow id reused";
            flowStart[e.id] = e.ts;
            break;
          case 'f':
            ASSERT_TRUE(e.hasId);
            ASSERT_TRUE(flowStart.count(e.id))
                << "finish before start, id " << e.id;
            EXPECT_GE(e.ts, flowStart[e.id]);
            EXPECT_TRUE(flowDone.insert(e.id).second);
            ++flows;
            break;
          case 'i':
            ++instants;
            break;
          case 'X':
            break;
          default:
            ADD_FAILURE() << "unexpected ph '" << e.ph << "'";
        }
    }
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
    EXPECT_EQ(flowDone.size(), flowStart.size());
    EXPECT_GT(spans, 0u);
    EXPECT_GT(flows, 0u);
    EXPECT_GT(instants, 0u); // spec outcomes, dir grants, trace done
}

TEST(Trace, WindowFiltersEverything)
{
    const std::string path =
        testing::TempDir() + "mspdsm_trace_window.json";
    ExperimentConfig ec = tiny();
    ec.tracePath = path;
    ec.traceFrom = 30000;
    ec.traceTo = 80000;
    const RunResult r = runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);

    const std::vector<TraceEvent> evs = parseTrace(path);
    ASSERT_FALSE(evs.empty()); // the window covers mid-run activity
    for (const TraceEvent &e : evs) {
        EXPECT_GE(e.ts, 30000u) << e.name;
        EXPECT_LE(e.ts, 80000u) << e.name;
    }
    // Spans/flows are emitted at completion with both endpoints
    // checked, so a window can never strand a begin or a start.
    std::map<unsigned, int> depth;
    std::map<std::uint64_t, unsigned> flowCount;
    for (const TraceEvent &e : evs) {
        if (e.ph == 'B')
            ++depth[e.tid];
        else if (e.ph == 'E')
            --depth[e.tid];
        else if (e.ph == 's' || e.ph == 'f')
            ++flowCount[e.id];
    }
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0);
    for (const auto &[id, c] : flowCount)
        EXPECT_EQ(c, 2u) << "flow id " << id;
}

TEST(Trace, SeriesBracketsTheOutage)
{
    // A sampled fault run: the time-series must show the throughput
    // dip between kill and restart and the recovery after it -- the
    // timeline fig11's three-point phase readout only summarizes.
    ExperimentConfig ec = tiny();
    ec.faults.events = {{40000, 3, FaultKind::Kill},
                        {70000, 3, FaultKind::Restart}};
    ec.sampleInterval = 5000;
    const RunResult r = runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.seriesInterval, 5000u);
    ASSERT_GE(r.series.size(), 4u);

    EXPECT_EQ(r.series.front().tick, 0u);
    for (std::size_t i = 1; i < r.series.size(); ++i) {
        EXPECT_GT(r.series[i].tick, r.series[i - 1].tick);
        EXPECT_GE(r.series[i].ops, r.series[i - 1].ops);
        EXPECT_GE(r.series[i].messages, r.series[i - 1].messages);
    }

    // Mean ops/tick of the series samples inside each phase.
    auto rate = [&](Tick from, Tick to) {
        const IntervalSample *lo = nullptr, *hi = nullptr;
        for (const IntervalSample &s : r.series) {
            if (s.tick < from || s.tick > to)
                continue;
            if (!lo)
                lo = &s;
            hi = &s;
        }
        if (!lo || hi->tick == lo->tick)
            return 0.0;
        return static_cast<double>(hi->ops - lo->ops) /
               static_cast<double>(hi->tick - lo->tick);
    };
    const double before = rate(0, 40000);
    const double during = rate(40000, 70000);
    const double after = rate(70000, r.execTicks);
    EXPECT_GT(before, 0.0);
    EXPECT_GT(after, 0.0);
    EXPECT_LT(during, before); // survivors stall behind the outage
    EXPECT_GT(after, during);  // and pick back up once it restarts
}

TEST(Trace, UnconfiguredRunCarriesNoObsState)
{
    // Gating: no instrument configured -> no sampler artifacts, empty
    // series -- while the always-on histograms still filled in.
    const RunResult r = runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    EXPECT_EQ(r.seriesInterval, 0u);
    EXPECT_TRUE(r.series.empty());
    EXPECT_GT(r.missLat.count(), 0u);
    EXPECT_GT(r.missLatP99, 0.0);
    EXPECT_LE(r.missLatP50, r.missLatP90);
    EXPECT_LE(r.missLatP90, r.missLatP99);
}

TEST(Trace, SamplerPerturbsNothingButTheEndTick)
{
    // The sampler reads counters and schedules only its own timer, so
    // a sampled run does the same work as an unsampled one; the lone
    // permitted artifact is the final re-armed firing stretching the
    // end tick by at most one interval.
    const RunResult plain =
        runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    ExperimentConfig ec = tiny();
    ec.sampleInterval = 7000;
    const RunResult sampled =
        runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(sampled.messages, plain.messages);
    EXPECT_EQ(sampled.reads, plain.reads);
    EXPECT_EQ(sampled.writes, plain.writes);
    EXPECT_EQ(sampled.specServedSwi, plain.specServedSwi);
    EXPECT_GE(sampled.execTicks, plain.execTicks);
    EXPECT_LE(sampled.execTicks, plain.execTicks + 7000);
}

TEST(Trace, LossyLinkStretchesTheLatencyTail)
{
    // The acceptance shape for the new percentile columns: each
    // retransmitted miss pays the drop-to-reinjection delay, so link
    // loss stretches the p99 beyond the fault-free fabric's.
    ExperimentConfig clean = tiny();
    clean.topo.kind = TopoKind::Mesh2D;
    ExperimentConfig lossy = clean;
    lossy.faults.linkLoss = {{0, maxTick, 0, 3}};
    const RunResult rc = runSpec("em3d", SpecMode::SwiFirstRead, clean);
    const RunResult rl = runSpec("em3d", SpecMode::SwiFirstRead, lossy);
    EXPECT_EQ(rc.status, RunStatus::Completed);
    EXPECT_EQ(rl.status, RunStatus::Completed);
    EXPECT_GT(rl.fault.linkDrops, 0u);
    EXPECT_GT(rc.missLatP99, 0.0);
    EXPECT_GT(rl.missLatP99, rc.missLatP99);
}
