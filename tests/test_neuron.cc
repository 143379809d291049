/**
 * @file
 * Unit tests for the LIF neuron array.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "snn/neuron.h"

namespace prosperity {
namespace {

/** A (T x N) current matrix, one inner list per time step. */
OutputMatrix
currentsOf(std::initializer_list<std::vector<std::int32_t>> steps)
{
    OutputMatrix currents(steps.size(), steps.begin()->size(), 0);
    std::size_t t = 0;
    for (const std::vector<std::int32_t>& step : steps) {
        for (std::size_t i = 0; i < step.size(); ++i)
            currents.at(t, i) = step[i];
        ++t;
    }
    return currents;
}

TEST(LifArray, FiresWhenThresholdCrossed)
{
    LifParams params;
    params.leak = 1.0; // no leak
    params.threshold = 10.0;
    LifArray lif(2, params);

    const BitMatrix spikes = lif.run(currentsOf({{6, 12}, {6, 0}}));
    EXPECT_FALSE(spikes.test(0, 0)); // 6 < 10
    EXPECT_TRUE(spikes.test(0, 1));  // 12 >= 10
    EXPECT_TRUE(spikes.test(1, 0));  // 6 + 6 = 12 >= 10
    EXPECT_FALSE(spikes.test(1, 1));
}

TEST(LifArray, SoftResetSubtractsThreshold)
{
    LifParams params;
    params.leak = 1.0;
    params.threshold = 10.0;
    params.soft_reset = true;
    LifArray lif(1, params);
    EXPECT_TRUE(lif.run(currentsOf({{25}})).test(0, 0));
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
    EXPECT_TRUE(lif.run(currentsOf({{25}})).test(0, 0));
    EXPECT_DOUBLE_EQ(lif.potential(0), 0.0);
}

TEST(LifArray, LeakDecaysPotential)
{
    LifParams params;
    params.leak = 0.5;
    params.threshold = 100.0;
    LifArray lif(1, params);
    // The potential carries over from one run to the next.
    lif.run(currentsOf({{40}}));
    EXPECT_DOUBLE_EQ(lif.potential(0), 40.0);
    lif.run(currentsOf({{0}}));
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

} // namespace
} // namespace prosperity
