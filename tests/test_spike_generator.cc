/**
 * @file
 * Tests for the calibrated synthetic spike generator — the stand-in for
 * the paper's recorded PyTorch activations.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "gen/spike_generator.h"
#include "snn/model_desc.h"
#include "snn/model_registry.h"

namespace prosperity {
namespace {

ActivationProfile
defaultProfile()
{
    ActivationProfile p;
    p.bit_density = 0.25;
    p.cluster_fraction = 0.7;
    p.bank_size = 12;
    p.subset_drop_prob = 0.3;
    p.temporal_repeat = 0.4;
    return p;
}

TEST(SpikeGenerator, Deterministic)
{
    const SpikeGenerator gen(defaultProfile(), 42);
    const BitMatrix a = gen.generate(128, 64, 4, 3);
    const BitMatrix b = gen.generate(128, 64, 4, 3);
    EXPECT_EQ(a, b);
}

/** FNV-1a fold over per-row FNV-1a word hashes — canonical thanks to
 *  tail masking. */
std::uint64_t
matrixHash(const BitMatrix& m)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        std::uint64_t row_hash = 0xcbf29ce484222325ULL;
        for (const std::uint64_t word : m.row(r)) {
            row_hash ^= word;
            row_hash *= 0x100000001b3ULL;
        }
        h ^= row_hash;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Generator output hashes per (seed, layer, shape), defaultProfile(). */
const struct
{
    std::uint64_t seed;
    std::size_t layer;
    std::size_t rows, cols, time_steps;
    std::uint64_t hash;
} kPins[] = {
    {42ULL, 0, 128, 64, 4, 0x9e0597ee4dfceaedULL},
    {42ULL, 3, 128, 64, 4, 0x0d5d70cbce924d92ULL},
    {7ULL, 1, 128, 64, 4, 0x5109284548edce31ULL},
    {1234567ULL, 9, 128, 64, 4, 0x11a6941fdc2e989eULL},
    // Eight words per row: bank orders of ~160 spikes, so clustered
    // rows OR in bank-prefix snapshots past the empty one.
    {42ULL, 1, 1024, 512, 4, 0x9457d5d5732fc691ULL},
};

TEST(SpikeGenerator, WordBatchedOutputMatchesPinnedHashes)
{
    // Pins the exact bit stream of the word-batched generator per
    // (seed, layer, shape). Any change to the draw order — Rng
    // batching, BitMatrix::randomizeRow, the binomial keep-length draw
    // — or to how a clustered row's prefix is written shows up here
    // before it silently shifts the calibration anchors.
    for (const auto& pin : kPins) {
        const SpikeGenerator gen(defaultProfile(), pin.seed);
        const BitMatrix m =
            gen.generate(pin.rows, pin.cols, pin.time_steps, pin.layer);
        EXPECT_EQ(matrixHash(m), pin.hash)
            << "seed=" << pin.seed << " layer=" << pin.layer
            << " shape=" << pin.rows << "x" << pin.cols;
    }
}

TEST(SpikeGenerator, PinnedHashesHoldUnderEveryForcedSimdTier)
{
    // The SIMD tier must never change a generated bit: the same pins,
    // re-checked with the dispatch forced to each tier the host
    // supports (scalar included). A divergence here means a vector
    // kernel or the batched RNG broke the equivalence contract of
    // bitmatrix/simd_dispatch.h.
    for (const SimdTier tier : availableSimdTiers()) {
        ASSERT_TRUE(setSimdTier(tier)) << simdTierName(tier);
        for (const auto& pin : kPins) {
            const SpikeGenerator gen(defaultProfile(), pin.seed);
            const BitMatrix m = gen.generate(pin.rows, pin.cols,
                                             pin.time_steps, pin.layer);
            EXPECT_EQ(matrixHash(m), pin.hash)
                << "tier=" << simdTierName(tier) << " seed=" << pin.seed
                << " layer=" << pin.layer << " shape=" << pin.rows << "x"
                << pin.cols;
        }
    }
    resetSimdTier();
}

TEST(SpikeGenerator, LayersHaveIndependentStreams)
{
    const SpikeGenerator gen(defaultProfile(), 42);
    const BitMatrix a = gen.generate(128, 64, 4, 1);
    const BitMatrix b = gen.generate(128, 64, 4, 2);
    EXPECT_NE(a, b);
}

TEST(SpikeGenerator, SeedsChangeOutput)
{
    const SpikeGenerator a(defaultProfile(), 1);
    const SpikeGenerator b(defaultProfile(), 2);
    EXPECT_NE(a.generate(64, 32, 4, 0), b.generate(64, 32, 4, 0));
}

TEST(SpikeGenerator, HitsTargetDensity)
{
    ActivationProfile p = defaultProfile();
    const SpikeGenerator gen(p, 7);
    // Average over layers to wash out the per-layer jitter.
    double total = 0.0;
    const int layers = 12;
    for (int i = 0; i < layers; ++i)
        total += gen.generate(512, 128, 4, i).density();
    EXPECT_NEAR(total / layers, p.bit_density, 0.05);
}

TEST(SpikeGenerator, LayerDensityJitterIsBounded)
{
    const SpikeGenerator gen(defaultProfile(), 7);
    for (std::size_t layer = 0; layer < 30; ++layer) {
        const double d = gen.layerDensity(layer);
        EXPECT_GE(d, 0.25 * 0.84);
        EXPECT_LE(d, 0.25 * 1.16);
    }
}

TEST(SpikeGenerator, TemporalRepeatCreatesExactCopies)
{
    ActivationProfile p = defaultProfile();
    p.temporal_repeat = 1.0;  // every row copies the previous step
    p.cluster_fraction = 0.0; // base rows fully random
    const SpikeGenerator gen(p, 5);
    const std::size_t positions = 32, t_steps = 4;
    const BitMatrix m = gen.generate(positions * t_steps, 48, t_steps, 0);
    for (std::size_t t = 1; t < t_steps; ++t)
        for (std::size_t i = 0; i < positions; ++i)
            EXPECT_TRUE(std::ranges::equal(m.row(t * positions + i),
                                           m.row(i)))
                << "t=" << t << " i=" << i;
}

TEST(SpikeGenerator, ClusteredRowsAreSubsetsOfBankPatterns)
{
    // With full clustering and no iid rows, every row must be a subset
    // of one of bank_size base patterns; with a small bank, many row
    // pairs are subset-related — the structure ProSparsity exploits.
    ActivationProfile p = defaultProfile();
    p.cluster_fraction = 1.0;
    p.temporal_repeat = 0.0;
    p.bank_size = 4;
    const SpikeGenerator gen(p, 9);
    const BitMatrix m = gen.generate(128, 16, 1, 0);

    std::size_t subset_pairs = 0;
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.rows(); ++j)
            if (i != j && anyWord(m.row(j).data(), m.rowWords()) &&
                isSubsetOfWords(m.row(j).data(), m.row(i).data(),
                                m.rowWords()))
                ++subset_pairs;
    // Far more subset pairs than an iid matrix of the same density.
    EXPECT_GT(subset_pairs, m.rows());
}

TEST(SpikeGenerator, GenerateLayerUsesGemmShape)
{
    const SpikeGenerator gen(defaultProfile(), 3);
    LayerSpec layer;
    layer.gemm = {96, 48, 10};
    layer.time_steps = 4;
    const BitMatrix m = gen.generateLayer(layer, 0);
    EXPECT_EQ(m.rows(), 96u);
    EXPECT_EQ(m.cols(), 48u);
}

TEST(SpikeGenerator, LayerOverrideUsesItsOwnProfile)
{
    // models/example_custom.json pins conv2's profile: generateLayer
    // draws that layer with the override under the generator's seed,
    // and every other layer with the generator's own profile.
    const ModelDesc desc =
        ModelDesc::load(defaultModelDir() + "/example_custom.json");
    const ModelSpec model = desc.lower(desc.defaultInput());
    const std::uint64_t seed = 11;
    const SpikeGenerator gen(*desc.profile, seed);
    std::size_t overrides = 0;
    for (std::size_t index = 0; index < model.layers.size(); ++index) {
        const LayerSpec& layer = model.layers[index];
        if (!layer.isSpikingGemm())
            continue;
        const BitMatrix own = gen.generate(layer.gemm.m, layer.gemm.k,
                                           layer.time_steps, index);
        if (!layer.profile_override) {
            EXPECT_EQ(gen.generateLayer(layer, index), own) << layer.name;
            continue;
        }
        ++overrides;
        const BitMatrix expected =
            SpikeGenerator(*layer.profile_override, seed)
                .generate(layer.gemm.m, layer.gemm.k, layer.time_steps,
                          index);
        EXPECT_EQ(gen.generateLayer(layer, index), expected) << layer.name;
        EXPECT_NE(expected, own) << layer.name;
    }
    EXPECT_EQ(overrides, 1u);
}

TEST(SpikeGenerator, EmptyShapesAreHandled)
{
    const SpikeGenerator gen(defaultProfile(), 3);
    const BitMatrix m = gen.generate(0, 16, 4, 0);
    EXPECT_EQ(m.rows(), 0u);
}

TEST(RandomWeights, RangeAndDeterminism)
{
    const WeightMatrix a = randomWeights(16, 8, 11);
    const WeightMatrix b = randomWeights(16, 8, 11);
    EXPECT_EQ(a, b);
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            EXPECT_GE(a.at(r, c), -127);
            EXPECT_LE(a.at(r, c), 127);
        }
}

} // namespace
} // namespace prosperity
