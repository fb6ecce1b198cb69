/** @file Sweep-engine tests: a parallel sweep must be bit-identical
 * to the serial one, results must come back in submission order, and
 * tick-limit guard trips must surface structurally in the summary
 * table and the JSON record. */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/sweep.hh"

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

/** Queue the whole paper methodology at tiny scale. */
void
queueSuite(SweepRunner &s, const ExperimentConfig &ec)
{
    for (const AppInfo &info : appSuite()) {
        s.addAccuracy(info.name, 1, ec);
        s.addAccuracy(info.name, 4, ec);
        for (SpecMode m : {SpecMode::None, SpecMode::FirstRead,
                           SpecMode::SwiFirstRead})
            s.addSpec(info.name, m, ec);
    }
}

/** Field-by-field equality of everything the benches publish. */
void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.avgRequestWait, b.avgRequestWait);
    EXPECT_EQ(a.avgMemWait, b.avgMemWait);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.barrierEpisodes, b.barrierEpisodes);
    EXPECT_EQ(a.specSentFr, b.specSentFr);
    EXPECT_EQ(a.specSentSwi, b.specSentSwi);
    EXPECT_EQ(a.specMissFr, b.specMissFr);
    EXPECT_EQ(a.specMissSwi, b.specMissSwi);
    EXPECT_EQ(a.specServedFr, b.specServedFr);
    EXPECT_EQ(a.specServedSwi, b.specServedSwi);
    EXPECT_EQ(a.specDropped, b.specDropped);
    EXPECT_EQ(a.swiSent, b.swiSent);
    EXPECT_EQ(a.swiPremature, b.swiPremature);
    EXPECT_EQ(a.swiSuppressed, b.swiSuppressed);
    EXPECT_EQ(a.pred.predicted.value(), b.pred.predicted.value());
    EXPECT_EQ(a.pred.correct.value(), b.pred.correct.value());
    EXPECT_EQ(a.pred.observed.value(), b.pred.observed.value());
    EXPECT_EQ(a.storage.pteTotal, b.storage.pteTotal);
    ASSERT_EQ(a.observers.size(), b.observers.size());
    for (std::size_t k = 0; k < a.observers.size(); ++k) {
        EXPECT_EQ(a.observers[k].name, b.observers[k].name);
        EXPECT_EQ(a.observers[k].depth, b.observers[k].depth);
        EXPECT_EQ(a.observers[k].stats.observed.value(),
                  b.observers[k].stats.observed.value());
        EXPECT_EQ(a.observers[k].stats.predicted.value(),
                  b.observers[k].stats.predicted.value());
        EXPECT_EQ(a.observers[k].stats.correct.value(),
                  b.observers[k].stats.correct.value());
        EXPECT_EQ(a.observers[k].storage.pteTotal,
                  b.observers[k].storage.pteTotal);
        EXPECT_EQ(a.observers[k].storage.blocksAllocated,
                  b.observers[k].storage.blocksAllocated);
    }
}

} // namespace

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    // The acceptance bar of the sweep engine: --jobs 8 and --jobs 1
    // produce the same RunResults field for field. The runs are
    // seeded per job and share no state, so the schedule the pool
    // happens to pick must be invisible.
    SweepRunner s1(1);
    queueSuite(s1, tiny());

    SweepRunner s8(8);
    queueSuite(s8, tiny());

    const auto &r1 = s1.results();
    const auto &r8 = s8.results();
    ASSERT_EQ(r1.size(), r8.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].label, r8[i].label);
        expectIdentical(r1[i].result, r8[i].result, r1[i].label);
    }
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    SweepRunner s(4);
    // Custom jobs with wildly different runtimes: completion order
    // differs from submission order, results() must not.
    for (int i = 0; i < 12; ++i) {
        s.add("job" + std::to_string(i), [i] {
            RunResult r;
            r.execTicks = static_cast<Tick>(i);
            return r;
        }, "crossbar");
    }
    const auto &recs = s.results();
    ASSERT_EQ(recs.size(), 12u);
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(recs[i].label, "job" + std::to_string(i));
        EXPECT_EQ(recs[i].result.execTicks, static_cast<Tick>(i));
    }
}

TEST(Sweep, GuardTripSurfacesInSummaryAndJson)
{
    // A run that trips the deadlock guard must show as a TICK-LIMIT
    // row in the summary table and a structured field in the JSON --
    // not a stderr warning.
    SweepRunner s(2);
    ExperimentConfig ec = tiny();
    s.addSpec("em3d", SpecMode::None, ec); // completes
    ec.tickLimit = 1000;                   // guard trips mid-run
    s.addSpec("em3d", SpecMode::None, ec);

    const auto &recs = s.results();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].result.status, RunStatus::Completed);
    EXPECT_EQ(recs[1].result.status, RunStatus::TickLimit);
    EXPECT_EQ(s.guardTrips(), 1u);

    std::ostringstream table;
    s.printSummary(table);
    EXPECT_NE(table.str().find("status"), std::string::npos);
    EXPECT_NE(table.str().find("TICK-LIMIT"), std::string::npos);

    std::ostringstream json;
    s.writeJson(json, "test_sweep");
    EXPECT_NE(json.str().find("\"schema\": \"mspdsm-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"guard_trips\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"status\": \"tick_limit\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"tick_limit\": true"),
              std::string::npos);
}

TEST(Sweep, TickLimitConfigReachesTheSimulator)
{
    // ExperimentConfig::tickLimit caps the run: partial statistics,
    // ticks at most the limit.
    ExperimentConfig ec = tiny();
    ec.tickLimit = 1000;
    const RunResult r = runSpec("em3d", SpecMode::None, ec);
    EXPECT_EQ(r.status, RunStatus::TickLimit);
    EXPECT_LE(r.execTicks, Tick{1000});
}

TEST(Sweep, JobsZeroMeansHardwareConcurrency)
{
    SweepRunner s(0);
    EXPECT_GE(s.jobs(), 1u);
    s.add("one", [] { return RunResult{}; }, "crossbar");
    EXPECT_EQ(s.results().size(), 1u);
}

TEST(Sweep, WallClockAndPerRunSecondsAreRecorded)
{
    SweepRunner s(2);
    s.addSpec("tomcatv", SpecMode::None, tiny());
    s.addSpec("ocean", SpecMode::None, tiny());
    const auto &recs = s.results();
    EXPECT_GT(s.wallSeconds(), 0.0);
    for (const SweepRecord &r : recs)
        EXPECT_GE(r.seconds, 0.0);
}
