/**
 * @file
 * Tests for the Sec. VIII scalability extensions: intra-PPU issue
 * parallelism and inter-PPU tile distribution.
 */

#include <gtest/gtest.h>

#include "arch/area_model.h"
#include "core/ppu.h"
#include "gen/spike_generator.h"

namespace prosperity {
namespace {

BitMatrix
clusteredSpikes(std::size_t m, std::size_t k, std::uint64_t seed)
{
    ActivationProfile p;
    p.bit_density = 0.25;
    p.cluster_fraction = 0.9;
    p.bank_size = 8;
    p.subset_drop_prob = 0.3;
    p.temporal_repeat = 0.5;
    return SpikeGenerator(p, seed).generate(m, k, 4, 0);
}

Ppu::Options
options(std::size_t issue_width)
{
    Ppu::Options o;
    o.max_sampled_tiles = 0;
    o.issue_width = issue_width;
    return o;
}

TEST(IntraPpu, WiderIssueNeverSlower)
{
    const BitMatrix spikes = clusteredSpikes(1024, 64, 1);
    const GemmShape shape{1024, 64, 128};
    double prev = 0.0;
    for (std::size_t w : {1u, 2u, 4u, 8u}) {
        const Ppu ppu(ProsperityConfig{}, options(w));
        const double cycles = ppu.runGemm(shape, spikes, nullptr).cycles;
        if (prev > 0.0) {
            EXPECT_LE(cycles, prev) << "issue width " << w;
        }
        prev = cycles;
    }
}

TEST(IntraPpu, HelpsEmHeavyWorkloadsMost)
{
    // An EM-dominated tile (many identical rows) is floor-bound, so
    // doubling the issue width cuts compute nearly in half; an
    // iid matrix with few matches barely changes.
    const GemmShape shape{1024, 16, 128};
    BitMatrix em_heavy(1024, 16);
    Rng rng(3);
    for (std::size_t r = 0; r < 8; ++r)
        em_heavy.randomizeRow(r, rng, 0.5);
    for (std::size_t r = 8; r < 1024; ++r)
        em_heavy.copyRow(r, r % 8);

    BitMatrix iid(1024, 16);
    iid.randomize(rng, 0.5);

    auto speedup = [&](const BitMatrix& m) {
        const Ppu w1(ProsperityConfig{}, options(1));
        const Ppu w4(ProsperityConfig{}, options(4));
        return w1.runGemm(shape, m, nullptr).compute_cycles /
               w4.runGemm(shape, m, nullptr).compute_cycles;
    };
    EXPECT_GT(speedup(em_heavy), speedup(iid));
    EXPECT_GT(speedup(em_heavy), 1.8);
}

TEST(IntraPpu, DoesNotChangeOpCounts)
{
    const BitMatrix spikes = clusteredSpikes(512, 32, 5);
    const GemmShape shape{512, 32, 128};
    const Ppu w1(ProsperityConfig{}, options(1));
    const Ppu w8(ProsperityConfig{}, options(8));
    EXPECT_DOUBLE_EQ(w1.runGemm(shape, spikes, nullptr).product_ops,
                     w8.runGemm(shape, spikes, nullptr).product_ops);
}

TEST(InterPpu, TileDistributionScalesComputeBoundLayers)
{
    const BitMatrix spikes = clusteredSpikes(4096, 64, 7);
    const GemmShape shape{4096, 64, 512};

    ProsperityConfig one;
    ProsperityConfig four = one;
    four.num_ppus = 4;
    const Ppu p1(one, options(1));
    const Ppu p4(four, options(1));
    const PpuLayerResult r1 = p1.runGemm(shape, spikes, nullptr);
    const PpuLayerResult r4 = p4.runGemm(shape, spikes, nullptr);
    // Compute-bound: near-linear scaling.
    EXPECT_GT(r1.cycles / r4.cycles, 3.0);
    EXPECT_LE(r1.cycles / r4.cycles, 4.1);
}

TEST(InterPpu, MemoryWallBoundsScaling)
{
    // A weight-heavy skinny GeMM with almost no spikes is DRAM-bound:
    // more PPUs do nothing.
    Rng rng(9);
    BitMatrix spikes(8, 4096);
    spikes.randomize(rng, 0.01);
    const GemmShape shape{8, 4096, 4096};

    ProsperityConfig one;
    ProsperityConfig eight = one;
    eight.num_ppus = 8;
    const PpuLayerResult r1 =
        Ppu(one, options(1)).runGemm(shape, spikes, nullptr);
    const PpuLayerResult r8 =
        Ppu(eight, options(1)).runGemm(shape, spikes, nullptr);
    EXPECT_DOUBLE_EQ(r1.cycles, r1.dram_cycles);
    EXPECT_DOUBLE_EQ(r8.cycles, r8.dram_cycles);
    EXPECT_DOUBLE_EQ(r1.cycles, r8.cycles);
}

TEST(InterPpu, PpuCountCappedByRowTiles)
{
    // 2 row-tiles cannot use more than 2 PPUs.
    const BitMatrix spikes = clusteredSpikes(512, 16, 11);
    const GemmShape shape{512, 16, 1024};
    ProsperityConfig two;
    two.num_ppus = 2;
    ProsperityConfig many = two;
    many.num_ppus = 16;
    const double c2 =
        Ppu(two, options(1)).runGemm(shape, spikes, nullptr).cycles;
    const double c16 =
        Ppu(many, options(1)).runGemm(shape, spikes, nullptr).cycles;
    EXPECT_DOUBLE_EQ(c2, c16);
}

TEST(InterPpu, AreaReplicatesPpuNotSfu)
{
    ProsperityConfig one;
    ProsperityConfig four = one;
    four.num_ppus = 4;
    const AreaBreakdown a1 = AreaModel(one).area();
    const AreaBreakdown a4 = AreaModel(four).area();
    EXPECT_NEAR(a4.detector / a1.detector, 4.0, 1e-9);
    EXPECT_NEAR(a4.buffer / a1.buffer, 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(a4.other, a1.other); // SFU + LIF shared
    EXPECT_GT(a4.total(), 3.0 * a1.total());
    EXPECT_LT(a4.total(), 4.0 * a1.total());
}

} // namespace
} // namespace prosperity
