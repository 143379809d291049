/**
 * @file
 * Tests for the SRAM model and the parametric area model, anchored on
 * the paper's Table III configuration and Fig. 10 (a) breakdown.
 */

#include <gtest/gtest.h>

#include "arch/area_model.h"
#include "arch/prosperity_config.h"
#include "arch/sram.h"

namespace prosperity {
namespace {

TEST(ProsperityConfig, TableIIIDefaults)
{
    const ProsperityConfig c;
    EXPECT_EQ(c.tile.m, 256u);
    EXPECT_EQ(c.tile.n, 128u);
    EXPECT_EQ(c.tile.k, 16u);
    EXPECT_EQ(c.num_pes, 128u);
    EXPECT_EQ(c.spikeBufferBytes(), 8u * 1024u);   // 8 KB spike buffer
    EXPECT_EQ(c.weightBufferBytes(), 32u * 1024u); // 32 KB weight buffer
    EXPECT_EQ(c.outputBufferBytes(), 96u * 1024u); // 96 KB output buffer
    EXPECT_EQ(c.tcamBits(), 8192u);                // 1 KB TCAM
    // 48-bit entries => 1.5 KB single table (3 KB double-buffered).
    EXPECT_EQ(c.tableEntryBits(), 48u);
}

TEST(Log2Ceil, Values)
{
    EXPECT_EQ(log2ceil(1), 1u);
    EXPECT_EQ(log2ceil(2), 1u);
    EXPECT_EQ(log2ceil(3), 2u);
    EXPECT_EQ(log2ceil(16), 4u);
    EXPECT_EQ(log2ceil(17), 5u);
    EXPECT_EQ(log2ceil(256), 8u);
}

TEST(SramBuffer, AreaGrowsWithCapacity)
{
    const SramBuffer small("s", 8 * 1024, 16);
    const SramBuffer large("l", 96 * 1024, 16);
    EXPECT_GT(large.areaMm2(), small.areaMm2());
    EXPECT_GT(large.accessEnergyPerBytePj(),
              small.accessEnergyPerBytePj());
}

TEST(AreaModel, ReproducesFig10Breakdown)
{
    const AreaModel model;
    const AreaBreakdown area = model.area();
    // Fig. 10 (a): total 0.529 mm^2 with the following split.
    EXPECT_NEAR(area.total(), 0.529, 0.015);
    EXPECT_NEAR(area.detector, 0.021, 0.004);
    EXPECT_NEAR(area.pruner, 0.020, 0.004);
    EXPECT_NEAR(area.dispatcher, 0.088, 0.010);
    EXPECT_NEAR(area.processor, 0.074, 0.008);
    EXPECT_NEAR(area.buffer, 0.303, 0.020);
    // Buffers dominate, dispatcher is the largest logic block.
    EXPECT_GT(area.buffer, area.dispatcher);
    EXPECT_GT(area.dispatcher, area.processor);
    EXPECT_GT(area.processor, area.detector);
}

TEST(AreaModel, AreaGrowsSuperlinearlyWithM)
{
    // Fig. 7: area grows super-linearly in the tile size m.
    auto areaFor = [](std::size_t m) {
        ProsperityConfig c;
        c.tile.m = m;
        return AreaModel(c).area().total();
    };
    const double a64 = areaFor(64);
    const double a128 = areaFor(128);
    const double a256 = areaFor(256);
    const double a512 = areaFor(512);
    EXPECT_LT(a64, a128);
    EXPECT_LT(a128, a256);
    EXPECT_LT(a256, a512);
    // Growth rate itself increases (super-linear).
    EXPECT_GT(a512 - a256, a256 - a128);
}

TEST(AreaModel, PeakPowerGrowsWithM)
{
    auto powerFor = [](std::size_t m) {
        ProsperityConfig c;
        c.tile.m = m;
        return AreaModel(c).peakOnChipPowerW();
    };
    EXPECT_LT(powerFor(64), powerFor(128));
    EXPECT_LT(powerFor(128), powerFor(256));
}

TEST(DramConfig, BandwidthCycles)
{
    const DramConfig dram;
    const Tech tech;
    // 64 GB/s at 500 MHz => 128 bytes per cycle.
    EXPECT_NEAR(dram.cyclesFor(128.0, tech), 1.0, 1e-9);
    EXPECT_NEAR(dram.cyclesFor(64e9, tech), 500e6, 1.0);
}

} // namespace
} // namespace prosperity
