/**
 * @file
 * Unit tests for the LIF and FS neuron models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "snn/neuron.h"

namespace prosperity {
namespace {

TEST(LifArray, FiresWhenThresholdCrossed)
{
    LifParams params;
    params.leak = 1.0; // no leak
    params.threshold = 10.0;
    LifArray lif(2, params);

    const std::int32_t step1[] = {6, 12};
    const BitVector s1 = lif.step(step1, 2);
    EXPECT_FALSE(s1.test(0)); // 6 < 10
    EXPECT_TRUE(s1.test(1));  // 12 >= 10

    const std::int32_t step2[] = {6, 0};
    const BitVector s2 = lif.step(step2, 2);
    EXPECT_TRUE(s2.test(0)); // 6 + 6 = 12 >= 10
    EXPECT_FALSE(s2.test(1));
}

TEST(LifArray, SoftResetSubtractsThreshold)
{
    LifParams params;
    params.leak = 1.0;
    params.threshold = 10.0;
    params.soft_reset = true;
    LifArray lif(1, params);
    const std::int32_t big[] = {25};
    EXPECT_TRUE(lif.step(big, 1).test(0));
    // 25 - 10 = 15 remains.
    EXPECT_DOUBLE_EQ(lif.potential(0), 15.0);
}

TEST(LifArray, HardResetZeroesPotential)
{
    LifParams params;
    params.leak = 1.0;
    params.threshold = 10.0;
    params.soft_reset = false;
    LifArray lif(1, params);
    const std::int32_t big[] = {25};
    EXPECT_TRUE(lif.step(big, 1).test(0));
    EXPECT_DOUBLE_EQ(lif.potential(0), 0.0);
}

TEST(LifArray, LeakDecaysPotential)
{
    LifParams params;
    params.leak = 0.5;
    params.threshold = 100.0;
    LifArray lif(1, params);
    const std::int32_t in[] = {40};
    lif.step(in, 1);
    EXPECT_DOUBLE_EQ(lif.potential(0), 40.0);
    const std::int32_t zero[] = {0};
    lif.step(zero, 1);
    EXPECT_DOUBLE_EQ(lif.potential(0), 20.0);
}

TEST(LifArray, RunProcessesAllTimeSteps)
{
    LifParams params;
    params.leak = 1.0;
    params.threshold = 5.0;
    LifArray lif(3, params);
    OutputMatrix currents(2, 3, 0);
    currents.at(0, 0) = 6; // fires at t=0
    currents.at(1, 1) = 3; // never fires
    currents.at(0, 2) = 3;
    currents.at(1, 2) = 3; // fires at t=1 (3 + 3 >= 5)
    const BitMatrix spikes = lif.run(currents);
    EXPECT_EQ(spikes.rows(), 2u);
    EXPECT_EQ(spikes.cols(), 3u);
    EXPECT_TRUE(spikes.test(0, 0));
    EXPECT_FALSE(spikes.test(1, 1));
    EXPECT_FALSE(spikes.test(0, 2));
    EXPECT_TRUE(spikes.test(1, 2));
}

TEST(LifArray, ResetClearsState)
{
    LifArray lif(1);
    const std::int32_t in[] = {30};
    lif.step(in, 1);
    lif.reset();
    EXPECT_DOUBLE_EQ(lif.potential(0), 0.0);
}

TEST(FsNeuron, EmitsAtMostMaxSpikes)
{
    const FsNeuron fs(8, 2);
    for (double a : {0.05, 0.3, 0.55, 0.8, 0.99}) {
        const BitVector train = fs.encode(a);
        EXPECT_LE(train.setBits().size(), 2u) << "activation " << a;
    }
}

TEST(FsNeuron, BinaryWeightedDecode)
{
    const FsNeuron fs(4, 4);
    // 0.75 = 1/2 + 1/4 => spikes at steps 0 and 1.
    const BitVector train = fs.encode(0.75);
    EXPECT_TRUE(train.test(0));
    EXPECT_TRUE(train.test(1));
    EXPECT_DOUBLE_EQ(fs.decode(train), 0.75);
}

TEST(FsNeuron, CodingErrorBounded)
{
    const FsNeuron fs(8, 2);
    // With 2 spikes over 8 binary-weighted steps the residual error is
    // bounded by the smallest unchosen weight sum.
    for (double a = 0.0; a <= 1.0; a += 0.01) {
        const double decoded = fs.decode(fs.encode(a));
        EXPECT_NEAR(decoded, a, 0.27) << "activation " << a;
    }
}

TEST(FsNeuron, SparserThanRateCoding)
{
    // The mechanism behind Stellar: total spikes stay <= 2 regardless of
    // activation, while LIF rate coding scales with the activation.
    const FsNeuron fs(8, 2);
    std::size_t fs_spikes = 0;
    for (double a = 0.05; a < 1.0; a += 0.05)
        fs_spikes += fs.encode(a).setBits().size();
    // 19 activations * 8 steps = 152 slots; FS uses at most 38.
    EXPECT_LE(fs_spikes, 38u);
}

TEST(FsNeuron, ZeroActivationSilent)
{
    const FsNeuron fs(6, 2);
    EXPECT_EQ(fs.encode(0.0).setBits().size(), 0u);
}

} // namespace
} // namespace prosperity
