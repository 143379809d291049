/**
 * @file
 * Tests for the workload runner that drives accelerators end to end.
 */

#include <gtest/gtest.h>

#include "analysis/runner.h"
#include "baselines/eyeriss.h"
#include "baselines/ptb.h"
#include "core/prosperity_accelerator.h"

namespace prosperity {
namespace {

Workload
smallWorkload()
{
    // LeNet-5/MNIST is the smallest full model in the zoo.
    return makeWorkload("LeNet5", "MNIST");
}

TEST(Runner, ProducesPositiveResults)
{
    ProsperityAccelerator prosperity;
    const RunResult r = runWorkload(prosperity, smallWorkload());
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.dense_macs, 0.0);
    EXPECT_GT(r.energy.totalPj(), 0.0);
    EXPECT_GT(r.gops(), 0.0);
    EXPECT_GT(r.gopj(), 0.0);
    EXPECT_EQ(r.accelerator, "Prosperity");
    EXPECT_EQ(r.workload, "LeNet5/MNIST");
}

TEST(Runner, DeterministicAcrossRuns)
{
    ProsperityAccelerator a, b;
    const RunResult ra = runWorkload(a, smallWorkload());
    const RunResult rb = runWorkload(b, smallWorkload());
    EXPECT_DOUBLE_EQ(ra.cycles, rb.cycles);
    EXPECT_DOUBLE_EQ(ra.energy.totalPj(), rb.energy.totalPj());
}

TEST(Runner, SeedChangesActivationsButNotOpCounts)
{
    ProsperityAccelerator a, b;
    RunOptions o1, o2;
    o1.seed = 1;
    o2.seed = 2;
    const RunResult ra = runWorkload(a, smallWorkload(), o1);
    const RunResult rb = runWorkload(b, smallWorkload(), o2);
    EXPECT_DOUBLE_EQ(ra.dense_macs, rb.dense_macs);
    EXPECT_NE(ra.cycles, rb.cycles); // different spike patterns
    EXPECT_NEAR(ra.cycles / rb.cycles, 1.0, 0.25);
}

TEST(Runner, LayerRecordsWhenRequested)
{
    ProsperityAccelerator prosperity;
    RunOptions options;
    options.keep_layer_records = true;
    const RunResult r = runWorkload(prosperity, smallWorkload(), options);
    EXPECT_GT(r.layers.size(), 3u);
    double cycles = 0.0;
    for (const auto& layer : r.layers)
        cycles += layer.cycles;
    EXPECT_NEAR(cycles, r.cycles, 1e-6);
}

TEST(Runner, ProsperityBeatsEyerissOnSnnWorkloads)
{
    ProsperityAccelerator prosperity;
    EyerissAccelerator eyeriss;
    const Workload w = smallWorkload();
    const RunResult rp = runWorkload(prosperity, w);
    const RunResult re = runWorkload(eyeriss, w);
    EXPECT_LT(rp.cycles, re.cycles);
    EXPECT_LT(rp.energy.totalPj(), re.energy.totalPj());
}

TEST(Runner, ProsperityBeatsPtb)
{
    ProsperityAccelerator prosperity;
    PtbAccelerator ptb;
    const Workload w = makeWorkload("SpikingBERT",
                                    "SST-2");
    const RunResult rp = runWorkload(prosperity, w);
    const RunResult rb = runWorkload(ptb, w);
    EXPECT_LT(rp.cycles, rb.cycles);
}

TEST(Runner, GopsAndGopjAreConsistent)
{
    ProsperityAccelerator prosperity;
    const RunResult r = runWorkload(prosperity, smallWorkload());
    EXPECT_NEAR(r.gops(), r.dense_macs / r.seconds() / 1e9, 1e-6);
    const double joules = r.energy.totalPj() * 1e-12;
    EXPECT_NEAR(r.gopj(), r.dense_macs / joules / 1e9, 1e-6);
}

TEST(GeometricMean, Values)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean({8.0}), 8.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

} // namespace
} // namespace prosperity
