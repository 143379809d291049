/**
 * @file
 * Tests for the baseline accelerator models: Eyeriss, PTB, SATO, MINT,
 * Stellar, A100 and the LoAS dual-side sparsity math.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "baselines/a100.h"
#include "baselines/eyeriss.h"
#include "baselines/loas.h"
#include "baselines/mint.h"
#include "baselines/ptb.h"
#include "baselines/sato.h"
#include "baselines/stellar.h"
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

TEST(Eyeriss, CyclesIndependentOfSparsity)
{
    EyerissAccelerator eyeriss;
    const GemmShape shape{256, 64, 128};
    const BitMatrix dense_spikes = randomSpikes(256, 64, 0.9, 1);
    const BitMatrix sparse_spikes = randomSpikes(256, 64, 0.05, 2);
    const double dense =
        eyeriss.runLayer(LayerRequest::spikingGemm(shape, dense_spikes))
            .cycles;
    const double sparse =
        eyeriss.runLayer(LayerRequest::spikingGemm(shape, sparse_spikes))
            .cycles;
    EXPECT_DOUBLE_EQ(dense, sparse);
}

TEST(Ptb, StructuredOpsBoundedByWindowAndBits)
{
    const std::size_t T = 4, L = 64, K = 32;
    const BitMatrix spikes = randomSpikes(T * L, K, 0.3, 3);
    const double structured = PtbAccelerator::structuredOps(spikes, T, 1);
    const double bits = static_cast<double>(spikes.popcount());
    const double dense = static_cast<double>(T * L * K);
    // Window processing covers every spike but never exceeds dense.
    EXPECT_GE(structured, bits);
    EXPECT_LE(structured, dense + 1e-9);
}

TEST(Ptb, AllZeroWindowsAreSqueezedOut)
{
    const BitMatrix spikes(4 * 16, 32); // empty
    EXPECT_DOUBLE_EQ(PtbAccelerator::structuredOps(spikes, 4, 8), 0.0);
}

TEST(Ptb, SingleSpikeCostsWholeWindow)
{
    BitMatrix spikes(4 * 8, 16);
    spikes.set(0, 5); // t=0, position 0, column 5
    // The window of 4 time steps is processed whole for that slot.
    EXPECT_DOUBLE_EQ(PtbAccelerator::structuredOps(spikes, 4, 1), 4.0);
}

TEST(Ptb, TemporalCorrelationReducesStructuredOverhead)
{
    // Identical rows across time steps: windows stay as dense as one
    // step, so overhead factor (structured / bits) approaches 1.
    const std::size_t T = 4, L = 32, K = 32;
    BitMatrix uncorrelated(T * L, K);
    Rng rng(5);
    uncorrelated.randomize(rng, 0.3);

    BitMatrix correlated(T * L, K);
    for (std::size_t i = 0; i < L; ++i)
        correlated.randomizeRow(i, rng, 0.3);
    for (std::size_t t = 1; t < T; ++t)
        for (std::size_t i = 0; i < L; ++i)
            correlated.copyRow(t * L + i, i);

    const double f_unc =
        PtbAccelerator::structuredOps(uncorrelated, T, 1) /
        static_cast<double>(uncorrelated.popcount());
    const double f_cor =
        PtbAccelerator::structuredOps(correlated, T, 1) /
        static_cast<double>(correlated.popcount());
    EXPECT_LT(f_cor, f_unc);
    EXPECT_NEAR(f_cor, 1.0, 1e-9);
}

TEST(Sato, PaddedOpsReflectImbalance)
{
    // One heavy row per batch pads every other PE to its length.
    BitMatrix spikes(4, 16);
    for (std::size_t c = 0; c < 16; ++c)
        spikes.set(0, c); // row 0: 16 spikes; rows 1-3: empty
    const double padded = SatoAccelerator::paddedOps(spikes, 4, 1);
    EXPECT_DOUBLE_EQ(padded, 16.0 * 4.0);
}

TEST(Sato, BalancedRowsHaveNoPadding)
{
    BitMatrix spikes(4, 16);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            spikes.set(r, c * 4 + static_cast<std::size_t>(r) % 4);
    const double padded = SatoAccelerator::paddedOps(spikes, 4, 1);
    EXPECT_DOUBLE_EQ(padded, 16.0); // max == per-row count == 4
}

TEST(Sato, PaddedOpsMatchTheSortedBatches)
{
    // The bucket sort's order, spelled out: sort the row popcounts
    // descending and pad each batch to its first row, summing in batch
    // order, so the doubles agree bit for bit.
    for (const double density : {0.02, 0.2, 0.7}) {
        for (const std::size_t rows : {1u, 31u, 32u, 33u, 1000u}) {
            const BitMatrix spikes = randomSpikes(rows, 70, density, 11);
            std::vector<std::size_t> pops(rows, 0);
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t c = 0; c < spikes.cols(); ++c)
                    pops[r] += spikes.test(r, c);
            std::sort(pops.begin(), pops.end(), std::greater<>());
            for (const std::size_t batch : {1u, 7u, 32u}) {
                double want = 0.0;
                for (std::size_t r0 = 0; r0 < rows; r0 += batch)
                    want += static_cast<double>(pops[r0]) *
                            static_cast<double>(
                                std::min(rows, r0 + batch) - r0);
                EXPECT_EQ(SatoAccelerator::paddedOps(spikes, batch, 3),
                          want * 3.0)
                    << "density " << density << ", " << rows
                    << " rows, batches of " << batch;
            }
        }
    }
}

TEST(Mint, CheaperEnergyThanPtbPerOp)
{
    const GemmShape shape{256, 64, 128};
    const BitMatrix spikes = randomSpikes(256, 64, 0.3, 7);
    MintAccelerator mint;
    PtbAccelerator ptb(4);
    const LayerRequest request = LayerRequest::spikingGemm(shape, spikes);
    EXPECT_LT(mint.runLayer(request).totalPj(),
              ptb.runLayer(request).totalPj());
}

TEST(Stellar, FsDensityRatioFromTableI)
{
    // 34.21% -> 9.80% (Table I).
    EXPECT_NEAR(StellarAccelerator::fsDensity(0.3421), 0.098, 0.002);
}

TEST(Stellar, FasterThanPtbOnSameLayer)
{
    const GemmShape shape{1024, 128, 128};
    const BitMatrix spikes = randomSpikes(1024, 128, 0.34, 9);
    StellarAccelerator stellar;
    PtbAccelerator ptb(4);
    const LayerRequest request = LayerRequest::spikingGemm(shape, spikes);
    EXPECT_LT(stellar.runLayer(request).cycles,
              ptb.runLayer(request).cycles);
}

TEST(A100, UtilizationGrowsWithShape)
{
    EXPECT_LT(A100Accelerator::utilization(GemmShape{64, 64, 64}),
              A100Accelerator::utilization(GemmShape{512, 768, 768}));
    EXPECT_LE(A100Accelerator::utilization(GemmShape{4096, 4096, 4096}),
              0.56);
}

TEST(A100, LaunchOverheadDominatesTinyKernels)
{
    A100Accelerator gpu;
    const GemmShape tiny{4, 16, 16};
    const BitMatrix spikes = randomSpikes(4, 16, 0.5, 1);
    const double cycles =
        gpu.runLayer(LayerRequest::spikingGemm(tiny, spikes)).cycles;
    // 6 us launch at the 500 MHz reporting clock ~ 3000 cycles.
    EXPECT_GT(cycles, 2900.0);
}

TEST(A100, EnergyFarAboveAsicForSameLayer)
{
    const GemmShape shape{512, 768, 768};
    const BitMatrix spikes = randomSpikes(512, 768, 0.15, 11);
    A100Accelerator gpu;
    PtbAccelerator ptb(4);
    const LayerRequest request = LayerRequest::spikingGemm(shape, spikes);
    // Compare against PTB's dynamic energy; runLayer also folds in the
    // ASIC's static/control energy, which the paper accounts at the
    // workload level.
    const LayerResult ptb_result = ptb.runLayer(request);
    const double ptb_dynamic_pj =
        ptb_result.totalPj() -
        ptb_result.energy.componentPj(EnergyComponent::kStatic);
    EXPECT_GT(gpu.runLayer(request).totalPj(), 10.0 * ptb_dynamic_pj);
}

TEST(Loas, CatalogMatchesTableV)
{
    const auto catalog = loasModelCatalog();
    ASSERT_EQ(catalog.size(), 3u);
    EXPECT_EQ(catalog[0].name, "AlexNet");
    EXPECT_NEAR(catalog[0].weight_density, 0.018, 1e-9);
    EXPECT_NEAR(catalog[2].activation_density, 0.3568, 1e-9);
}

TEST(Loas, DualSideOpsMatchBruteForce)
{
    Rng rng(13);
    const BitMatrix spikes = randomSpikes(32, 24, 0.4, 14);
    const BitMatrix mask = Loas::weightMask(24, 16, 0.2, rng);
    double brute = 0.0;
    for (std::size_t r = 0; r < spikes.rows(); ++r)
        for (std::size_t n = 0; n < mask.cols(); ++n)
            for (std::size_t k = 0; k < spikes.cols(); ++k)
                if (spikes.test(r, k) && mask.test(k, n))
                    brute += 1.0;
    EXPECT_DOUBLE_EQ(Loas::dualSideOps(spikes, mask), brute);
}

TEST(Loas, DualSideOpsBelowSingleSide)
{
    Rng rng(15);
    const BitMatrix spikes = randomSpikes(64, 64, 0.35, 16);
    const BitMatrix mask = Loas::weightMask(64, 32, 0.05, rng);
    const double dual = Loas::dualSideOps(spikes, mask);
    const double act_only =
        static_cast<double>(spikes.popcount()) * 32.0;
    EXPECT_LT(dual, act_only);
}

TEST(Baselines, NamesAndPeCounts)
{
    EXPECT_EQ(EyerissAccelerator().numPes(), 168u);
    EXPECT_EQ(PtbAccelerator().numPes(), 128u);
    EXPECT_EQ(SatoAccelerator().numPes(), 128u);
    EXPECT_EQ(MintAccelerator().numPes(), 128u);
    EXPECT_EQ(StellarAccelerator().numPes(), 168u);
    EXPECT_EQ(LoasAccelerator().numPes(), 128u);
    EXPECT_EQ(EyerissAccelerator().name(), "Eyeriss");
    EXPECT_EQ(A100Accelerator().name(), "A100");
    EXPECT_EQ(LoasAccelerator().name(), "LoAS");
}

TEST(LoasAccelerator, DeterministicAcrossInstances)
{
    // The pruned-weight mask is derived from (k, n, density) alone, so
    // two instances — e.g. two engine worker threads — agree exactly.
    const GemmShape shape{128, 64, 48};
    const BitMatrix spikes = randomSpikes(128, 64, 0.3, 21);
    const LayerRequest request = LayerRequest::spikingGemm(shape, spikes);
    LoasAccelerator a, b;
    const LayerResult ra = a.runLayer(request);
    const LayerResult rb = b.runLayer(request);
    EXPECT_DOUBLE_EQ(ra.cycles, rb.cycles);
    EXPECT_DOUBLE_EQ(ra.totalPj(), rb.totalPj());
}

TEST(LoasAccelerator, DualSparsityBeatsActivationOnlyCompute)
{
    // At 1.8% weight density the dual-side op count is a tiny fraction
    // of the activation-only count, so LoAS needs far fewer processor
    // charges than MINT on the same layer.
    const GemmShape shape{512, 128, 128};
    const BitMatrix spikes = randomSpikes(512, 128, 0.3, 22);
    const LayerRequest request = LayerRequest::spikingGemm(shape, spikes);
    LoasAccelerator loas;
    MintAccelerator mint;
    constexpr EnergyComponent kProcessor = EnergyComponent::kProcessor;
    EXPECT_LT(loas.runLayer(request).energy.componentPj(kProcessor),
              mint.runLayer(request).energy.componentPj(kProcessor));
}

} // namespace
} // namespace prosperity
