/**
 * @file
 * Unit tests for the deterministic PRNG all experiments are seeded with.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.h"

namespace prosperity {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
    EXPECT_EQ(rng.nextBelow(0), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(21);
    std::vector<int> counts(8, 0);
    const int draws = 8000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.nextBelow(8)];
    for (int c : counts) {
        EXPECT_GT(c, draws / 8 - 200);
        EXPECT_LT(c, draws / 8 + 200);
    }
}

TEST(Rng, NextBelowMatchesTheTwoDivisionLoop)
{
    // nextBelow computes its rejection threshold only for a draw below
    // the bound. This loop computes it before every draw, as nextBelow
    // once did; both must return the same values and consume the same
    // draws. The two largest bounds reject a quarter and about a half
    // of all draws, so the rejection path runs too.
    const auto twoDivisionNextBelow = [](Rng& rng, std::uint64_t bound) {
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = rng.next();
            if (r >= threshold)
                return r % bound;
        }
    };
    for (const std::uint64_t bound :
         {1ULL, 3ULL, 24ULL, 1000ULL, (1ULL << 32) + 1, 3ULL << 62,
          (1ULL << 63) + 1}) {
        Rng library(99), reference(99);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(library.nextBelow(bound),
                      twoDivisionNextBelow(reference, bound))
                << "bound=" << bound << " draw " << i;
        EXPECT_EQ(library.next(), reference.next()) << "bound=" << bound;
    }
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        hits += rng.nextBool(0.2) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.2, 0.015);
}

TEST(Rng, SplitStreamsAreIndependentAndStable)
{
    const Rng parent(77);
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    Rng a2 = parent.split(1);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, a2.next()); // same stream id => same sequence
        if (va == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator)
{
    static_assert(Rng::min() == 0);
    static_assert(Rng::max() == ~0ULL);
    Rng rng(1);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(rng());
    EXPECT_GT(seen.size(), 95u);
}

} // namespace
} // namespace prosperity
