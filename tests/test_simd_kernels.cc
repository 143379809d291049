/**
 * @file
 * Differential tests for the runtime-dispatched SIMD kernel tiers.
 *
 * Every tier the host can run (availableSimdTiers()) is fuzzed against
 * the scalar reference in bitmatrix/word_kernels.h: same inputs, bit
 * identical outputs, across randomized widths, word-boundary +/-1
 * tails and all-zero / all-one extremes. Failure messages name the
 * tier and the width so a kernel bug is localized from the log alone.
 * The batched RNG draw
 * (Rng::nextBernoulliWords) is pinned to the per-word draw sequence
 * the same way, and selectPrefixes is checked for cross-tier identity
 * against selectPrefixesNaive.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "core/prefix_select.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

/** Word counts covering every vector-width boundary +/-1. */
const std::size_t kWidths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,  15,
                               16, 17, 23, 24, 25, 31, 32, 33, 64, 65,
                               66, 100};

std::vector<std::uint64_t>
randomWords(Rng& rng, std::size_t n, double density)
{
    std::vector<std::uint64_t> words(n);
    if (n > 0)
        rng.nextBernoulliWords(words.data(), n, density);
    return words;
}

/**
 * Runs every test body once per available tier with the dispatch
 * forced to that tier, and restores auto-detection afterwards.
 */
class SimdKernels : public ::testing::TestWithParam<SimdTier>
{
  protected:
    void SetUp() override
    {
        ASSERT_TRUE(setSimdTier(GetParam()))
            << "tier " << simdTierName(GetParam())
            << " was listed available but could not be forced";
        ASSERT_EQ(activeSimdTier(), GetParam());
    }

    void TearDown() override { resetSimdTier(); }

    const char* tier() const { return simdTierName(GetParam()); }
};

TEST_P(SimdKernels, PopcountMatchesScalarReference)
{
    Rng rng(101);
    const SimdOps& ops = simdOps();
    for (const std::size_t n : kWidths) {
        for (const double density : {0.0, 0.02, 0.5, 0.98, 1.0}) {
            const auto words = randomWords(rng, n, density);
            EXPECT_EQ(ops.popcountWords(words.data(), n),
                      popcountWords(words.data(), n))
                << "tier " << tier() << " n=" << n
                << " density=" << density;
        }
    }
}

TEST_P(SimdKernels, AllZeroAndAllOneExtremes)
{
    const SimdOps& ops = simdOps();
    for (const std::size_t n : kWidths) {
        const std::vector<std::uint64_t> zeros(n, 0);
        const std::vector<std::uint64_t> ones(n, ~0ULL);
        EXPECT_EQ(ops.popcountWords(ones.data(), n), 64 * n)
            << "tier " << tier() << " n=" << n;
        EXPECT_EQ(ops.popcountWords(zeros.data(), n), 0u)
            << "tier " << tier() << " n=" << n;
    }
}

TEST_P(SimdKernels, BitMatrixQueriesAgreeWithBitwiseRecounts)
{
    // End-to-end through BitMatrix's one word buffer and its row
    // spans: the dispatched popcount and the word kernels must equal a
    // bit-by-bit recount.
    Rng rng(106);
    for (const std::size_t cols : {1UL, 63UL, 64UL, 65UL, 511UL, 512UL,
                                   513UL, 1000UL}) {
        BitMatrix m(3, cols);
        m.randomize(rng, 0.37);
        // Row 1 becomes row 0 minus row 2's bits: a subset of row 0.
        for (std::size_t c = 0; c < cols; ++c)
            m.set(1, c, m.test(0, c) && !m.test(2, c));
        std::size_t expected = 0;
        std::size_t expected_row0 = 0;
        for (std::size_t r = 0; r < m.rows(); ++r)
            for (std::size_t c = 0; c < cols; ++c) {
                expected += m.test(r, c) ? 1 : 0;
                expected_row0 += r == 0 && m.test(r, c) ? 1 : 0;
            }
        EXPECT_EQ(m.popcount(), expected)
            << "tier " << tier() << " cols=" << cols;
        EXPECT_EQ(anyWord(m.row(0).data(), m.rowWords()),
                  expected_row0 > 0)
            << "tier " << tier() << " cols=" << cols;

        // The dropped-bits row is a subset; one bit outside breaks it.
        EXPECT_TRUE(isSubsetOfWords(m.row(1).data(), m.row(0).data(),
                                    m.rowWords()))
            << "tier " << tier() << " cols=" << cols;
        for (std::size_t c = cols; c-- > 0;) {
            if (!m.test(0, c)) {
                m.set(1, c);
                EXPECT_FALSE(isSubsetOfWords(m.row(1).data(),
                                             m.row(0).data(), m.rowWords()))
                    << "tier " << tier() << " cols=" << cols
                    << " outside bit " << c;
                break;
            }
        }
    }
}

TEST_P(SimdKernels, SelectPrefixesMatchesNaiveReference)
{
    Rng rng(107);
    for (const std::size_t cols : {16UL, 64UL, 200UL}) {
        // Half i.i.d. rows, half subsets of one base row: the clustered
        // half gives the wide tiles' subset confirmation real work.
        BitMatrix matrix(96, cols);
        BitMatrix base(1, cols);
        base.randomizeRow(0, rng, 0.6);
        for (std::size_t r = 0; r < matrix.rows(); ++r) {
            matrix.randomizeRow(r, rng, r % 2 == 0 ? 0.15 : 0.4);
            if (r % 2 == 1)
                for (std::size_t c = 0; c < cols; ++c)
                    matrix.set(r, c,
                               base.test(0, c) && !matrix.test(r, c));
        }
        // The fast path reads the whole matrix in place as one tile.
        DistinctRows distinct;
        distinct.select(matrix, 0, 0, matrix.rows(), cols);
        const PrefixSelection fast = selectPrefixes(distinct);
        const PrefixSelection naive = selectPrefixesNaive(matrix);
        ASSERT_EQ(fast.popcounts, naive.popcounts)
            << "tier " << tier() << " cols=" << cols;
        for (std::size_t r = 0; r < matrix.rows(); ++r)
            EXPECT_EQ(fast.prefix[r], naive.prefix[r])
                << "tier " << tier() << " cols=" << cols << " row " << r;
        EXPECT_EQ(fast.order, naive.order)
            << "tier " << tier() << " cols=" << cols;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailableTiers, SimdKernels,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier>& param_info) {
        return std::string(simdTierName(param_info.param));
    });

TEST(SimdDispatch, TierParsingRoundTrips)
{
    for (const SimdTier tier :
         {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
        const auto parsed = parseSimdTier(simdTierName(tier));
        ASSERT_TRUE(parsed.has_value()) << simdTierName(tier);
        EXPECT_EQ(*parsed, tier);
    }
    EXPECT_EQ(parseSimdTier("AVX2"), SimdTier::kAvx2); // case-insensitive
    EXPECT_FALSE(parseSimdTier("neon").has_value());
    EXPECT_FALSE(parseSimdTier("sse2").has_value());
    EXPECT_FALSE(parseSimdTier("").has_value());
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndForcible)
{
    EXPECT_TRUE(simdTierAvailable(SimdTier::kScalar));
    const auto tiers = availableSimdTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), SimdTier::kScalar);
    EXPECT_TRUE(setSimdTier(SimdTier::kScalar));
    EXPECT_EQ(activeSimdTier(), SimdTier::kScalar);
    EXPECT_STREQ(simdOps().name, "scalar");
    resetSimdTier();
    // After reset the active tier is one of the available ones again.
    bool listed = false;
    for (const SimdTier t : availableSimdTiers())
        listed = listed || t == activeSimdTier();
    EXPECT_TRUE(listed);
}

TEST(BatchedBernoulli, MatchesPerWordDrawsAndStreamState)
{
    // An n-word batch must consume the same draw sequence as n one-word
    // batches: same words out, and the *next* raw draw afterwards
    // identical too.
    for (const double p : {0.0, 0.001, 0.15, 0.25, 0.5, 0.93, 1.0}) {
        for (const std::size_t n : {0UL, 1UL, 2UL, 7UL, 8UL, 33UL}) {
            Rng batched(555), serial(555);
            std::vector<std::uint64_t> got(n + 1, 0xabadcafe);
            batched.nextBernoulliWords(got.data(), n, p);
            for (std::size_t w = 0; w < n; ++w) {
                std::uint64_t want = 0;
                serial.nextBernoulliWords(&want, 1, p);
                ASSERT_EQ(got[w], want)
                    << "p=" << p << " n=" << n << " word " << w;
            }
            EXPECT_EQ(got[n], 0xabadcafeu)
                << "p=" << p << " n=" << n << " wrote past nwords";
            EXPECT_EQ(batched.next(), serial.next())
                << "p=" << p << " n=" << n
                << " stream state diverged after the batch";
        }
    }
}

} // namespace
} // namespace prosperity
