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

#include <tuple>

#include "core/prefix_select.h"
#include "core/product_gemm.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"

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
    TileWords t;
    for (std::size_t r0 = 0; r0 < spikes.rows(); r0 += tile.m) {
        for (std::size_t c0 = 0; c0 < spikes.cols(); c0 += tile.k) {
            extractTile(spikes, r0, c0, tile.m, tile.k, t);
            const PrefixSelection sel = selectPrefixes(t);
            for (std::size_t i = 0; i < sel.rows(); ++i) {
                if (sel.prefix[i] == PrefixSelection::kNoPrefix)
                    continue;
                const auto p = static_cast<std::size_t>(sel.prefix[i]);

                // (2) the prefix issues first in (popcount, index) order.
                ASSERT_TRUE(sel.popcounts[p] < sel.popcounts[i] ||
                            (sel.popcounts[p] == sel.popcounts[i] && p < i))
                    << "row " << i << " prefix " << p;

                // (3) disjointness + reconstruction, word by word.
                for (std::size_t w = 0; w < t.row_words; ++w) {
                    const std::uint64_t pattern = t.row(i)[w] ^ t.row(p)[w];
                    ASSERT_EQ(pattern & t.row(p)[w], 0u);
                    ASSERT_EQ(pattern | t.row(p)[w], t.row(i)[w]);
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
 * Canonical-form check for the tail-masking invariant (bit_vector.h):
 * tail bits of the last word must be zero after any sequence of
 * mutations.
 */
::testing::AssertionResult
tailIsCanonical(const BitVector& v)
{
    const std::size_t tail = v.size() % 64;
    if (tail != 0 && (v.words().back() >> tail) != 0)
        return ::testing::AssertionFailure()
               << "tail bits set in last word (size=" << v.size() << ")";
    return ::testing::AssertionSuccess();
}

/** Tail-masking invariant through every mutating path. */
class CanonicalTailProperties : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CanonicalTailProperties, EveryMutatingPathKeepsTailZero)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 7919 + 3);

    BitVector v(bits);
    ASSERT_TRUE(tailIsCanonical(v)) << "fresh";

    v.randomize(rng, 0.6);
    ASSERT_TRUE(tailIsCanonical(v)) << "randomize";

    for (std::size_t w = 0; w < v.wordCount(); ++w)
        v.setWord(w, rng.next());
    ASSERT_TRUE(tailIsCanonical(v)) << "setWord";

    v.set(bits - 1);
    v.set(0, false);
    ASSERT_TRUE(tailIsCanonical(v)) << "set";

    BitVector other(bits);
    other.randomize(rng, 0.4);
    v &= other;
    ASSERT_TRUE(tailIsCanonical(v)) << "operator&=";
    v |= other;
    ASSERT_TRUE(tailIsCanonical(v)) << "operator|=";
    v ^= other;
    ASSERT_TRUE(tailIsCanonical(v)) << "operator^=";
    ASSERT_TRUE(tailIsCanonical(v & other)) << "operator&";
    ASSERT_TRUE(tailIsCanonical(v | other)) << "operator|";
    ASSERT_TRUE(tailIsCanonical(v ^ other)) << "operator^";
    ASSERT_TRUE(tailIsCanonical(v.andNot(other))) << "andNot";

    v.clear();
    ASSERT_TRUE(tailIsCanonical(v)) << "clear";

    const BitVector parsed =
        BitVector::fromString(std::string(bits, '1'));
    ASSERT_TRUE(tailIsCanonical(parsed)) << "fromString";
}

TEST_P(CanonicalTailProperties, MatrixPathsKeepTailZero)
{
    const std::size_t cols = GetParam();
    Rng rng(cols + 17);
    BitMatrix m(48, cols);
    m.randomize(rng, 0.3);
    for (std::size_t r = 0; r < m.rows(); ++r)
        ASSERT_TRUE(tailIsCanonical(m.row(r))) << "randomize row " << r;

    TileWords t;
    extractTile(m, 5, 1, 16, cols > 2 ? cols - 2 : cols, t);
    const std::size_t tail = t.cols % 64;
    for (std::size_t r = 0; r < t.rows; ++r)
        ASSERT_TRUE(tail == 0 || (t.row(r).back() >> tail) == 0)
            << "tile row " << r;

    // The generator exercises randomize + set + row copies in one go.
    ActivationProfile profile;
    profile.bit_density = 0.2;
    const BitMatrix gen =
        SpikeGenerator(profile, 77).generate(64, cols, 2, 1);
    for (std::size_t r = 0; r < gen.rows(); ++r)
        ASSERT_TRUE(tailIsCanonical(gen.row(r)))
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
