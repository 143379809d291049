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
#include "whole_tile.h"

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

TEST_P(SimdKernels, SignatureScanMatchesScalarReference)
{
    Rng rng(105);
    const SimdOps& ops = simdOps();
    for (const std::size_t n : kWidths) {
        for (const double density : {0.0, 0.3, 0.9}) {
            const auto sigs = randomWords(rng, n, density);
            const std::uint64_t query = rng.next() | rng.next();
            // One slot of slack past the contract's n-entry buffer:
            // the sentinel at out[n] must survive even the vector
            // tiers' branchless compress stores (which may scribble
            // within out[0, n) past the returned count, but never
            // beyond n).
            std::vector<std::uint32_t> got(n + 1, 0xdeadbeef);
            std::vector<std::uint32_t> want(n + 1, 0xdeadbeef);
            const std::size_t ngot =
                ops.signatureScanWords(sigs.data(), n, query, got.data());
            const std::size_t nwant =
                signatureScanWords(sigs.data(), n, query, want.data());
            ASSERT_EQ(ngot, nwant)
                << "tier " << tier() << " n=" << n
                << " density=" << density;
            for (std::size_t i = 0; i < nwant; ++i)
                ASSERT_EQ(got[i], want[i])
                    << "tier " << tier() << " n=" << n
                    << " survivor index " << i;
            EXPECT_EQ(got[n], 0xdeadbeefu)
                << "tier " << tier() << " n=" << n
                << " wrote past the n-entry buffer";
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
        // Empty signatures pass every query, full ones only a full
        // query: the scan keeps all n candidates or none.
        std::vector<std::uint32_t> out(n + 1);
        EXPECT_EQ(ops.signatureScanWords(zeros.data(), n, 0, out.data()),
                  n)
            << "tier " << tier() << " n=" << n;
        EXPECT_EQ(ops.signatureScanWords(ones.data(), n, ~0ULL,
                                         out.data()),
                  n)
            << "tier " << tier() << " n=" << n;
        EXPECT_EQ(ops.signatureScanWords(ones.data(), n, ~1ULL,
                                         out.data()),
                  0u)
            << "tier " << tier() << " n=" << n;
    }
}

TEST_P(SimdKernels, BitVectorOpsAgreeWithScalarLoops)
{
    // End-to-end through BitVector's word spans, across the inline /
    // heap storage boundary (kInlineWords): every query must equal a
    // bit-by-bit recount.
    Rng rng(106);
    for (const std::size_t bits : {1UL, 63UL, 64UL, 65UL, 511UL, 512UL,
                                   513UL, 1000UL}) {
        BitVector v(bits);
        v.randomize(rng, 0.37);
        std::size_t expected = 0;
        for (std::size_t pos = 0; pos < bits; ++pos)
            expected += v.test(pos) ? 1 : 0;
        EXPECT_EQ(v.popcount(), expected)
            << "tier " << tier() << " bits=" << bits;
        EXPECT_EQ(v.any(), expected > 0)
            << "tier " << tier() << " bits=" << bits;

        // Dropping bits keeps a subset; one bit outside breaks it.
        BitVector drop(bits);
        drop.randomize(rng, 0.5);
        BitVector sub = v.andNot(drop);
        EXPECT_TRUE(sub.isSubsetOf(v))
            << "tier " << tier() << " bits=" << bits;
        for (std::size_t pos = bits; pos-- > 0;) {
            if (!v.test(pos)) {
                sub.set(pos);
                EXPECT_FALSE(sub.isSubsetOf(v))
                    << "tier " << tier() << " bits=" << bits
                    << " outside bit " << pos;
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
        BitMatrix tile(96, cols);
        BitVector base(cols);
        base.randomize(rng, 0.6);
        for (std::size_t r = 0; r < tile.rows(); ++r) {
            tile.row(r).randomize(rng, r % 2 == 0 ? 0.15 : 0.4);
            if (r % 2 == 1)
                tile.row(r) = base.andNot(tile.row(r));
        }
        const PrefixSelection fast = selectPrefixes(wholeTile(tile));
        const PrefixSelection naive = selectPrefixesNaive(tile);
        ASSERT_EQ(fast.popcounts, naive.popcounts)
            << "tier " << tier() << " cols=" << cols;
        for (std::size_t r = 0; r < tile.rows(); ++r)
            EXPECT_EQ(fast.prefix[r], naive.prefix[r])
                << "tier " << tier() << " cols=" << cols << " row " << r;
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
    // The batched fill must consume the identical draw sequence: same
    // words out, and the *next* raw draw afterwards identical too.
    for (const double p : {0.0, 0.001, 0.15, 0.25, 0.5, 0.93, 1.0}) {
        for (const std::size_t n : {0UL, 1UL, 2UL, 7UL, 8UL, 33UL}) {
            Rng batched(555), serial(555);
            std::vector<std::uint64_t> got(n + 1, 0xabadcafe);
            batched.nextBernoulliWords(got.data(), n, p);
            for (std::size_t w = 0; w < n; ++w) {
                const std::uint64_t want = serial.nextBernoulliWord(p);
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
