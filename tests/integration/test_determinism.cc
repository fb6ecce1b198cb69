/** @file Bit-exact determinism of full-system runs. */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "testutil.hh"

using namespace mspdsm;
using namespace mspdsm::test;

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

} // namespace

TEST(Determinism, AccuracyRunsAreRepeatable)
{
    for (const char *app : {"em3d", "barnes"}) {
        const RunResult a = runAccuracy(app, 1, tiny());
        const RunResult b = runAccuracy(app, 1, tiny());
        EXPECT_EQ(a.execTicks, b.execTicks) << app;
        EXPECT_EQ(a.messages, b.messages) << app;
        ASSERT_EQ(a.observers.size(), b.observers.size());
        for (std::size_t i = 0; i < a.observers.size(); ++i) {
            EXPECT_EQ(a.observers[i].stats.predicted.value(),
                      b.observers[i].stats.predicted.value());
            EXPECT_EQ(a.observers[i].stats.correct.value(),
                      b.observers[i].stats.correct.value());
        }
    }
}

TEST(Determinism, SpecRunsAreRepeatable)
{
    const RunResult a = runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    const RunResult b = runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.swiSent, b.swiSent);
    EXPECT_EQ(a.specSentSwi, b.specSentSwi);
    EXPECT_EQ(a.specServedSwi, b.specServedSwi);
}

TEST(Determinism, SeedChangesJitteredRun)
{
    ExperimentConfig e1 = tiny();
    ExperimentConfig e2 = tiny();
    e2.seed = 777;
    const RunResult a = runAccuracy("em3d", 1, e1);
    const RunResult b = runAccuracy("em3d", 1, e2);
    // Different jitter stream: some timing difference is expected.
    EXPECT_NE(a.execTicks, b.execTicks);
}

TEST(Determinism, ObserversDoNotPerturbExecution)
{
    // The paper's methodology measures all predictors on one run;
    // observation must not change timing.
    const Workload w = buildWorkload("em3d", tiny());
    DsmConfig with;
    with.proto.netJitter = w.netJitter;
    with.observers = {{PredKind::Cosmos, 1},
                      {PredKind::Msp, 2},
                      {PredKind::Vmsp, 4}};
    DsmConfig without;
    without.proto.netJitter = w.netJitter;
    DsmSystem s1(with), s2(without);
    EXPECT_EQ(s1.run(w).execTicks, s2.run(w).execTicks);
}
