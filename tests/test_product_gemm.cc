/**
 * @file
 * Tests for the functional ProSparsity GeMM: bit-exactness against the
 * dense reference is the paper's lossless-ness claim, checked here on
 * the paper's example, adversarial patterns, and random sweeps.
 */

#include <gtest/gtest.h>

#include "core/product_gemm.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"
#include "tile_helpers.h"

namespace prosperity {
namespace {

TEST(ProductGemm, PaperToyExampleExact)
{
    // Fig. 1: 6x4 spikes times 4x3 weights.
    const BitMatrix spikes = fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    WeightMatrix weights(4, 3);
    const std::int32_t values[4][3] = {
        {3, 12, 34}, {17, 34, 36}, {29, 22, 73}, {45, 79, 54}};
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            weights.at(r, c) = values[r][c];

    const ProductGemm gemm;
    const auto result = gemm.multiply(spikes, weights);
    EXPECT_EQ(result.output, ProductGemm::referenceMultiply(spikes,
                                                            weights));
    EXPECT_DOUBLE_EQ(result.dense_ops, 72.0);
    EXPECT_DOUBLE_EQ(result.bit_ops, 14.0 * 3.0);
    EXPECT_DOUBLE_EQ(result.product_ops, 6.0 * 3.0);
    EXPECT_EQ(result.exact_matches, 1u);
}

TEST(ProductGemm, IdentityOnEmptyMatrix)
{
    const BitMatrix spikes(8, 16);
    const WeightMatrix weights = randomWeights(16, 4, 1);
    const auto result = ProductGemm().multiply(spikes, weights);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(result.output.at(r, c), 0);
    EXPECT_DOUBLE_EQ(result.product_ops, 0.0);
}

TEST(ProductGemm, AllOnesMatrixUsesEmChains)
{
    BitMatrix spikes(32, 16);
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            spikes.set(r, c);
    const WeightMatrix weights = randomWeights(16, 8, 2);
    const auto result = ProductGemm().multiply(spikes, weights);
    EXPECT_EQ(result.output,
              ProductGemm::referenceMultiply(spikes, weights));
    // One full row computed, 31 EM reuses.
    EXPECT_DOUBLE_EQ(result.product_ops, 16.0 * 8.0);
    EXPECT_EQ(result.exact_matches, 31u);
}

TEST(ProductGemm, ExactAcrossTileBoundaries)
{
    // M and K chosen to exercise cropped edge tiles.
    Rng rng(4);
    BitMatrix spikes(300, 40);
    spikes.randomize(rng, 0.3);
    const WeightMatrix weights = randomWeights(40, 24, 5);
    TileConfig tile; // 256 x 128 x 16: K=40 -> tiles of 16,16,8
    const auto result = ProductGemm(tile).multiply(spikes, weights);
    EXPECT_EQ(result.output,
              ProductGemm::referenceMultiply(spikes, weights));
}

TEST(ProductGemm, ExactWithGeneratorStructure)
{
    // Clustered/temporal structure exercises deep PM/EM chains.
    ActivationProfile p;
    p.bit_density = 0.3;
    p.cluster_fraction = 0.9;
    p.bank_size = 6;
    p.subset_drop_prob = 0.35;
    p.temporal_repeat = 0.5;
    const SpikeGenerator gen(p, 99);
    const BitMatrix spikes = gen.generate(512, 48, 4, 0);
    const WeightMatrix weights = randomWeights(48, 20, 9);
    const auto result = ProductGemm().multiply(spikes, weights);
    EXPECT_EQ(result.output,
              ProductGemm::referenceMultiply(spikes, weights));
    EXPECT_LT(result.product_ops, result.bit_ops);
}

/** Property sweep: exactness and op ordering across densities/shapes. */
struct GemmCase
{
    std::size_t m, k, n;
    double density;
};

class ProductGemmSweep : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(ProductGemmSweep, BitExactAndOpsOrdered)
{
    const GemmCase c = GetParam();
    Rng rng(1000 + c.m + c.k + c.n);
    BitMatrix spikes(c.m, c.k);
    spikes.randomize(rng, c.density);
    const WeightMatrix weights = randomWeights(c.k, c.n, 55 + c.n);

    const auto result = ProductGemm().multiply(spikes, weights);
    EXPECT_EQ(result.output,
              ProductGemm::referenceMultiply(spikes, weights));
    // Monotone op hierarchy: product <= bit <= dense.
    EXPECT_LE(result.product_ops, result.bit_ops);
    EXPECT_LE(result.bit_ops, result.dense_ops);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProductGemmSweep,
    ::testing::Values(GemmCase{1, 16, 8, 0.5},     // single row
                      GemmCase{17, 3, 5, 0.4},     // tiny K
                      GemmCase{64, 16, 16, 0.01},  // ultra sparse
                      GemmCase{64, 16, 16, 0.9},   // near dense
                      GemmCase{256, 16, 32, 0.2},  // exactly one tile
                      GemmCase{257, 17, 8, 0.3},   // off-by-one edges
                      GemmCase{512, 256, 160, 0.15},
                      GemmCase{300, 64, 64, 0.34}));

} // namespace
} // namespace prosperity
