/**
 * @file
 * Property-based tests (parameterized sweeps) over the ProSparsity
 * invariants listed in DESIGN.md Sec. 6:
 *
 *  1. ProSparsity GeMM == dense GeMM (losslessness);
 *  2. every prefix precedes its row in (popcount, index) order, so the
 *     sorted issue order is legal and the prefix forest is acyclic;
 *  3. prefix/pattern disjointness + reconstruction;
 *  4. op monotonicity: product <= bit <= dense.
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>

#include "core/prefix_select.h"
#include "core/product_gemm.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"
#include "tile_helpers.h"

namespace prosperity {
namespace {

/** (density, rows, cols, clustered?) */
using PropertyCase = std::tuple<double, std::size_t, std::size_t, bool>;

class ProsparsityProperties
    : public ::testing::TestWithParam<PropertyCase>
{
  protected:
    BitMatrix
    makeMatrix() const
    {
        const auto [density, rows, cols, clustered] = GetParam();
        if (clustered) {
            ActivationProfile p;
            p.bit_density = density;
            p.cluster_fraction = 0.85;
            p.bank_size = 8;
            p.subset_drop_prob = 0.3;
            p.temporal_repeat = 0.5;
            return SpikeGenerator(p, 1234).generate(rows, cols, 4, 0);
        }
        Rng rng(static_cast<std::uint64_t>(density * 1000) + rows + cols);
        BitMatrix m(rows, cols);
        m.randomize(rng, density);
        return m;
    }
};

TEST_P(ProsparsityProperties, GemmIsLossless)
{
    const BitMatrix spikes = makeMatrix();
    const WeightMatrix weights =
        randomWeights(spikes.cols(), 12, spikes.rows());
    const auto result = ProductGemm().multiply(spikes, weights);
    EXPECT_EQ(result.output,
              ProductGemm::referenceMultiply(spikes, weights));
}

TEST_P(ProsparsityProperties, OpsAreMonotone)
{
    const BitMatrix spikes = makeMatrix();
    const WeightMatrix weights =
        randomWeights(spikes.cols(), 8, spikes.rows() + 1);
    const auto result = ProductGemm().multiply(spikes, weights);
    EXPECT_LE(result.product_ops, result.bit_ops + 1e-9);
    EXPECT_LE(result.bit_ops, result.dense_ops + 1e-9);
}

TEST_P(ProsparsityProperties, TileInvariants)
{
    const BitMatrix spikes = makeMatrix();
    TileConfig tile;
    DistinctRows distinct; // one workspace for every tile
    // A non-empty row's words: those of its value.
    const auto words = [&](std::size_t row) {
        return distinct.words(
            static_cast<std::size_t>(distinct.valueOf(row)));
    };
    for (std::size_t r0 = 0; r0 < spikes.rows(); r0 += tile.m) {
        for (std::size_t c0 = 0; c0 < spikes.cols(); c0 += tile.k) {
            distinct.select(spikes, r0, c0, tile.m, tile.k);
            const PrefixSelection sel = selectPrefixes(distinct);
            for (std::size_t i = 0; i < sel.rows(); ++i) {
                if (sel.prefix[i] == PrefixSelection::kNoPrefix)
                    continue;
                const auto p = static_cast<std::size_t>(sel.prefix[i]);

                // (2) the prefix issues first in (popcount, index) order.
                ASSERT_TRUE(sel.popcounts[p] < sel.popcounts[i] ||
                            (sel.popcounts[p] == sel.popcounts[i] && p < i))
                    << "row " << i << " prefix " << p;

                // (3) disjointness + reconstruction, word by word.
                const std::span<const std::uint64_t> row = words(i);
                const std::span<const std::uint64_t> prefix = words(p);
                for (std::size_t w = 0; w < row.size(); ++w) {
                    const std::uint64_t pattern = row[w] ^ prefix[w];
                    ASSERT_EQ(pattern & prefix[w], 0u);
                    ASSERT_EQ(pattern | prefix[w], row[w]);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProsparsityProperties,
    ::testing::Values(
        PropertyCase{0.01, 128, 16, false},
        PropertyCase{0.05, 256, 16, false},
        PropertyCase{0.10, 256, 32, false},
        PropertyCase{0.20, 300, 48, false},
        PropertyCase{0.34, 256, 16, false},
        PropertyCase{0.50, 128, 24, false},
        PropertyCase{0.70, 64, 16, false},
        PropertyCase{0.90, 512, 16, false},
        PropertyCase{0.15, 512, 64, true},
        PropertyCase{0.30, 512, 48, true},
        PropertyCase{0.45, 256, 32, true},
        PropertyCase{0.25, 1000, 40, true}));

/** Tile-size sweep: invariants independent of (m, k) choices. */
class TileSizeProperties
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(TileSizeProperties, LosslessForAnyTileConfig)
{
    const auto [m, k] = GetParam();
    Rng rng(m * 31 + k);
    BitMatrix spikes(400, 70);
    spikes.randomize(rng, 0.3);
    const WeightMatrix weights = randomWeights(70, 16, 3);

    TileConfig tile;
    tile.m = m;
    tile.k = k;
    const auto result = ProductGemm(tile).multiply(spikes, weights);
    EXPECT_EQ(result.output,
              ProductGemm::referenceMultiply(spikes, weights));
}

/**
 * Canonical-form check for the tail-masking invariant (bit_matrix.h):
 * the bits past `bits` in the last of `words` must be zero after any
 * sequence of mutations.
 */
::testing::AssertionResult
tailIsCanonical(std::span<const std::uint64_t> words, std::size_t bits)
{
    const std::size_t tail = bits % 64;
    if (tail != 0 && (words.back() >> tail) != 0)
        return ::testing::AssertionFailure()
               << "tail bits set in last word (size=" << bits << ")";
    return ::testing::AssertionSuccess();
}

/** Tail-masking invariant through every mutating path. */
class CanonicalTailProperties : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CanonicalTailProperties, MatrixPathsKeepTailZero)
{
    const std::size_t cols = GetParam();
    Rng rng(cols + 17);
    BitMatrix m(48, cols);
    m.randomize(rng, 0.3);
    for (std::size_t r = 0; r < m.rows(); ++r)
        ASSERT_TRUE(tailIsCanonical(m.row(r), cols))
            << "randomize row " << r;

    m.set(0, cols - 1);
    m.set(0, 0, false);
    ASSERT_TRUE(tailIsCanonical(m.row(0), cols)) << "set";

    const BitMatrix parsed = fromStrings({std::string(cols, '1')});
    ASSERT_TRUE(tailIsCanonical(parsed.row(0), cols)) << "fromStrings";
    EXPECT_EQ(parsed.popcount(), cols);

    // The generator exercises randomizeRow + set + copyRow in one go.
    ActivationProfile profile;
    profile.bit_density = 0.2;
    const BitMatrix gen =
        SpikeGenerator(profile, 77).generate(64, cols, 2, 1);
    for (std::size_t r = 0; r < gen.rows(); ++r)
        ASSERT_TRUE(tailIsCanonical(gen.row(r), cols))
            << "spike generator row " << r;
}

INSTANTIATE_TEST_SUITE_P(Widths, CanonicalTailProperties,
                         ::testing::Values(1, 5, 63, 64, 65, 127, 128,
                                           511, 512, 513, 1000));

INSTANTIATE_TEST_SUITE_P(
    TileSizes, TileSizeProperties,
    ::testing::Values(std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{16, 8},
                      std::pair<std::size_t, std::size_t>{32, 16},
                      std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{128, 32},
                      std::pair<std::size_t, std::size_t>{256, 16},
                      std::pair<std::size_t, std::size_t>{512, 128},
                      std::pair<std::size_t, std::size_t>{1024, 2048}));

} // namespace
} // namespace prosperity
