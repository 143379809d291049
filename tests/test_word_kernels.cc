/**
 * @file
 * Tests for the fused word-level kernels (bitmatrix/word_kernels.h) and
 * the batched Bernoulli/binomial RNG draws that feed them.
 */

#include <gtest/gtest.h>

#include <bit>

#include "bitmatrix/bit_vector.h"
#include "bitmatrix/word_kernels.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

std::uint64_t
signatureOf(const BitVector& v)
{
    return signatureWords(v.words().data(), v.wordCount());
}

TEST(WordKernels, PopcountMatchesScalar)
{
    const std::uint64_t words[] = {0x0, 0xffffffffffffffffULL, 0x5ULL,
                                   0x8000000000000001ULL};
    EXPECT_EQ(popcountWords(words, 4), 0u + 64u + 2u + 2u);
    EXPECT_EQ(popcountWords(words, 0), 0u);
}

TEST(WordKernels, SubsetAgreesWithBitVector)
{
    Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        BitVector super(200);
        super.randomize(rng, 0.5);
        // Dropping bits yields a subset; setting a bit outside breaks it.
        BitVector drop(200);
        drop.randomize(rng, 0.3);
        const BitVector sub = super.andNot(drop);
        EXPECT_TRUE(isSubsetOfWords(sub.words().data(),
                                    super.words().data(),
                                    sub.words().size()));
        BitVector outside = sub;
        // Find a position where super is 0 and set it.
        for (std::size_t pos = 0; pos < super.size(); ++pos) {
            if (!super.test(pos)) {
                outside.set(pos);
                EXPECT_FALSE(isSubsetOfWords(outside.words().data(),
                                             super.words().data(),
                                             outside.words().size()));
                break;
            }
        }
    }
}

TEST(WordKernels, SignatureIsExactForOneWord)
{
    BitVector v(48);
    v.set(0);
    v.set(47);
    EXPECT_EQ(signatureOf(v), v.words()[0]);
}

TEST(WordKernels, SignaturePreservesSubsetOrder)
{
    // If A ⊆ B then sig(A) & ~sig(B) == 0, at every width regime
    // (1 word, one-bit-per-word, grouped words).
    Rng rng(17);
    for (std::size_t width : {40UL, 320UL, 64UL * 70UL}) {
        for (int trial = 0; trial < 20; ++trial) {
            BitVector b(width);
            b.randomize(rng, 0.1);
            BitVector drop(width);
            drop.randomize(rng, 0.5);
            const BitVector a = b.andNot(drop);
            EXPECT_EQ(signatureOf(a) & ~signatureOf(b), 0u)
                << "width " << width;
        }
    }
}

TEST(WordKernels, SignatureRejectsDisjointOccupancy)
{
    // Rows occupying different words must fail the signature filter.
    BitVector lo(256), hi(256);
    lo.set(3);
    hi.set(200);
    EXPECT_NE(signatureOf(lo) & ~signatureOf(hi), 0u);
    EXPECT_FALSE(lo.isSubsetOf(hi));
}

TEST(BernoulliWord, EdgeProbabilities)
{
    Rng rng(1);
    EXPECT_EQ(rng.nextBernoulliWord(0.0), 0u);
    EXPECT_EQ(rng.nextBernoulliWord(-1.0), 0u);
    EXPECT_EQ(rng.nextBernoulliWord(1.0), ~0ULL);
    EXPECT_EQ(rng.nextBernoulliWord(1.5), ~0ULL);
}

TEST(BernoulliWord, MeanTracksProbability)
{
    Rng rng(5);
    for (double p : {0.05, 0.25, 0.5, 0.8}) {
        std::size_t ones = 0;
        const int words = 4000;
        for (int i = 0; i < words; ++i)
            ones += static_cast<std::size_t>(
                std::popcount(rng.nextBernoulliWord(p)));
        const double measured =
            static_cast<double>(ones) / (64.0 * words);
        EXPECT_NEAR(measured, p, 0.01) << "p=" << p;
    }
}

TEST(BernoulliWord, DeterministicPerSeed)
{
    Rng a(99), b(99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.nextBernoulliWord(0.3), b.nextBernoulliWord(0.3));
}

TEST(BernoulliWord, LanesAreIndependentAcrossDraws)
{
    // Adjacent draws must not repeat (catches accumulator reuse bugs).
    Rng rng(2);
    const std::uint64_t w1 = rng.nextBernoulliWord(0.5);
    const std::uint64_t w2 = rng.nextBernoulliWord(0.5);
    EXPECT_NE(w1, w2);
}

TEST(Binomial, ExactBounds)
{
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t draw = rng.nextBinomial(100, 0.3);
        EXPECT_LE(draw, 100u);
    }
    EXPECT_EQ(rng.nextBinomial(0, 0.7), 0u);
    EXPECT_EQ(rng.nextBinomial(77, 0.0), 0u);
    EXPECT_EQ(rng.nextBinomial(77, 1.0), 77u);
}

TEST(Binomial, MeanTracksNP)
{
    Rng rng(13);
    double total = 0.0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i)
        total += static_cast<double>(rng.nextBinomial(150, 0.2));
    EXPECT_NEAR(total / trials, 150.0 * 0.2, 1.0);
}

TEST(BitVectorRandomize, WordBatchedHitsDensity)
{
    Rng rng(21);
    BitVector v(64 * 500 + 17); // non-aligned tail included
    v.randomize(rng, 0.15);
    const double measured = static_cast<double>(v.popcount()) /
                            static_cast<double>(v.size());
    EXPECT_NEAR(measured, 0.15, 0.01);
    // Tail invariant survives the bulk fill.
    EXPECT_EQ(v.words().back() >> 17, 0u);
}

} // namespace
} // namespace prosperity
