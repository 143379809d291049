/**
 * @file
 * Tests for the layer-level PPU pipeline model (Secs. V-A, VI).
 */

#include <gtest/gtest.h>

#include "core/ppu.h"
#include "core/prosperity_accelerator.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

BitMatrix
randomSpikes(std::size_t m, std::size_t k, double density,
             std::uint64_t seed)
{
    Rng rng(seed);
    BitMatrix spikes(m, k);
    spikes.randomize(rng, density);
    return spikes;
}

Ppu::Options
noSampling(SparsityMode sparsity = SparsityMode::kProductSparsity,
           DispatchMode dispatch = DispatchMode::kOverheadFree)
{
    Ppu::Options o;
    o.sparsity = sparsity;
    o.dispatch = dispatch;
    o.max_sampled_tiles = 0;
    return o;
}

TEST(Ppu, ProductOpsBelowBitOps)
{
    const Ppu ppu(ProsperityConfig{}, noSampling());
    const GemmShape shape{512, 64, 256};
    const BitMatrix spikes = randomSpikes(512, 64, 0.3, 1);
    const PpuLayerResult r = ppu.runGemm(shape, spikes, nullptr);
    EXPECT_GT(r.product_ops, 0.0);
    EXPECT_LT(r.product_ops, r.bit_ops);
    EXPECT_LT(r.bit_ops, r.dense_ops);
}

TEST(Ppu, CyclesScaleWithNPasses)
{
    // Same spikes; N = 128 vs N = 256 must roughly double compute.
    const Ppu ppu(ProsperityConfig{}, noSampling());
    const BitMatrix spikes = randomSpikes(256, 16, 0.3, 2);
    const PpuLayerResult r1 =
        ppu.runGemm(GemmShape{256, 16, 128}, spikes, nullptr);
    const PpuLayerResult r2 =
        ppu.runGemm(GemmShape{256, 16, 256}, spikes, nullptr);
    EXPECT_NEAR(r2.compute_cycles / r1.compute_cycles, 2.0, 1e-9);
}

TEST(Ppu, BitModeSlowerThanProductMode)
{
    ActivationProfile p;
    p.bit_density = 0.3;
    p.cluster_fraction = 0.8;
    p.bank_size = 8;
    p.subset_drop_prob = 0.3;
    p.temporal_repeat = 0.4;
    const BitMatrix spikes = SpikeGenerator(p, 3).generate(1024, 64, 4, 0);
    const GemmShape shape{1024, 64, 128};

    const Ppu product(ProsperityConfig{}, noSampling());
    const Ppu bit(ProsperityConfig{},
                  noSampling(SparsityMode::kBitSparsity));
    const double product_cycles =
        product.runGemm(shape, spikes, nullptr).cycles;
    const double bit_cycles = bit.runGemm(shape, spikes, nullptr).cycles;
    EXPECT_LT(product_cycles, bit_cycles);
}

TEST(Ppu, TraversalDispatchSlowerOrEqual)
{
    const BitMatrix spikes = randomSpikes(1024, 64, 0.25, 4);
    const GemmShape shape{1024, 64, 128};
    const Ppu fast(ProsperityConfig{}, noSampling());
    const Ppu slow(ProsperityConfig{},
                   noSampling(SparsityMode::kProductSparsity,
                              DispatchMode::kTreeTraversal));
    const PpuLayerResult rf = fast.runGemm(shape, spikes, nullptr);
    const PpuLayerResult rs = slow.runGemm(shape, spikes, nullptr);
    EXPECT_GE(rs.cycles, rf.cycles);
    EXPECT_DOUBLE_EQ(rs.product_ops, rf.product_ops)
        << "dispatch mode must not change the math";
}

TEST(Ppu, SamplingApproximatesFullAnalysis)
{
    const BitMatrix spikes = randomSpikes(2048, 128, 0.3, 5);
    const GemmShape shape{2048, 128, 128};
    Ppu::Options sampled = noSampling();
    sampled.max_sampled_tiles = 16;
    const PpuLayerResult full =
        Ppu(ProsperityConfig{}, noSampling()).runGemm(shape, spikes,
                                                      nullptr);
    const PpuLayerResult approx =
        Ppu(ProsperityConfig{}, sampled).runGemm(shape, spikes, nullptr);
    EXPECT_NEAR(approx.product_ops / full.product_ops, 1.0, 0.1);
    EXPECT_NEAR(approx.cycles / full.cycles, 1.0, 0.1);
}

TEST(Ppu, EnergyChargesAllPpuComponents)
{
    EnergyModel energy;
    const Ppu ppu(ProsperityConfig{}, noSampling());
    const BitMatrix spikes = randomSpikes(512, 32, 0.3, 6);
    ppu.runGemm(GemmShape{512, 32, 128}, spikes, &energy);
    EXPECT_GT(energy.componentPj(EnergyComponent::kDetector), 0.0);
    EXPECT_GT(energy.componentPj(EnergyComponent::kPruner), 0.0);
    EXPECT_GT(energy.componentPj(EnergyComponent::kDispatcher), 0.0);
    EXPECT_GT(energy.componentPj(EnergyComponent::kProcessor), 0.0);
    EXPECT_GT(energy.componentPj(EnergyComponent::kBuffer), 0.0);
    EXPECT_GT(energy.componentPj(EnergyComponent::kDram), 0.0);
}

TEST(Ppu, BitModeChargesNoDetector)
{
    EnergyModel energy;
    const Ppu ppu(ProsperityConfig{},
                  noSampling(SparsityMode::kBitSparsity));
    const BitMatrix spikes = randomSpikes(512, 32, 0.3, 6);
    ppu.runGemm(GemmShape{512, 32, 128}, spikes, &energy);
    EXPECT_DOUBLE_EQ(energy.componentPj(EnergyComponent::kDetector), 0.0);
    EXPECT_GT(energy.componentPj(EnergyComponent::kProcessor), 0.0);
}

TEST(Ppu, MemoryBoundLayerPacedByDram)
{
    // A skinny GeMM with huge K*N weight traffic and almost no compute.
    const Ppu ppu(ProsperityConfig{}, noSampling());
    const BitMatrix spikes = randomSpikes(8, 1024, 0.02, 7);
    const PpuLayerResult r =
        ppu.runGemm(GemmShape{8, 1024, 1024}, spikes, nullptr);
    EXPECT_DOUBLE_EQ(r.cycles, r.dram_cycles);
    EXPECT_GT(r.dram_cycles, r.compute_cycles);
}

TEST(Ppu, ProsparsityPhaseHiddenOnComputeBoundLayers)
{
    // Dense-ish spikes with many N passes: compute dominates and the
    // ProSparsity phase is fully overlapped.
    const Ppu ppu(ProsperityConfig{}, noSampling());
    const BitMatrix spikes = randomSpikes(256, 16, 0.6, 8);
    const PpuLayerResult r =
        ppu.runGemm(GemmShape{256, 16, 1024}, spikes, nullptr);
    EXPECT_DOUBLE_EQ(r.exposed_prosparsity_cycles, 0.0);
}

TEST(ProsperityAcceleratorTest, NameTracksConfiguration)
{
    EXPECT_EQ(ProsperityAccelerator().name(), "Prosperity");
    Ppu::Options bit;
    bit.sparsity = SparsityMode::kBitSparsity;
    EXPECT_EQ(ProsperityAccelerator(ProsperityConfig{}, bit).name(),
              "Prosperity(bit-only)");
    Ppu::Options slow;
    slow.dispatch = DispatchMode::kTreeTraversal;
    EXPECT_EQ(ProsperityAccelerator(ProsperityConfig{}, slow).name(),
              "Prosperity(traversal)");
}

TEST(ProsperityAcceleratorTest, AreaMatchesPaper)
{
    EXPECT_NEAR(ProsperityAccelerator().areaMm2(), 0.529, 0.02);
}

} // namespace
} // namespace prosperity
