/**
 * @file
 * Tests for the fused word-level kernels (bitmatrix/word_kernels.h) and
 * the batched Bernoulli/binomial RNG draws that feed them.
 */

#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/word_kernels.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

std::uint64_t
signatureOf(std::span<const std::uint64_t> words)
{
    return signatureWords(words.data(), words.size());
}

/** A 1 x cols row of Bernoulli(density) bits drawn from `rng`. */
BitMatrix
randomRow(Rng& rng, std::size_t cols, double density)
{
    BitMatrix row(1, cols);
    row.randomizeRow(0, rng, density);
    return row;
}

/** The words of a & ~b: a subset of `a`. */
std::vector<std::uint64_t>
withoutBits(std::span<const std::uint64_t> a,
            std::span<const std::uint64_t> b)
{
    std::vector<std::uint64_t> out(a.begin(), a.end());
    for (std::size_t w = 0; w < out.size(); ++w)
        out[w] &= ~b[w];
    return out;
}

TEST(WordKernels, PopcountMatchesScalar)
{
    const std::uint64_t words[] = {0x0, 0xffffffffffffffffULL, 0x5ULL,
                                   0x8000000000000001ULL};
    EXPECT_EQ(popcountWords(words, 4), 0u + 64u + 2u + 2u);
    EXPECT_EQ(popcountWords(words, 0), 0u);
}

TEST(WordKernels, SubsetDetectsDroppedAndAddedBits)
{
    Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        const BitMatrix super = randomRow(rng, 200, 0.5);
        // Dropping bits yields a subset; setting a bit outside breaks it.
        const BitMatrix drop = randomRow(rng, 200, 0.3);
        const std::vector<std::uint64_t> sub =
            withoutBits(super.row(0), drop.row(0));
        EXPECT_TRUE(isSubsetOfWords(sub.data(), super.row(0).data(),
                                    sub.size()));
        std::vector<std::uint64_t> outside = sub;
        // Find a position where super is 0 and set it.
        for (std::size_t pos = 0; pos < super.cols(); ++pos) {
            if (!super.test(0, pos)) {
                outside[pos / 64] |= 1ULL << (pos % 64);
                EXPECT_FALSE(isSubsetOfWords(outside.data(),
                                             super.row(0).data(),
                                             outside.size()));
                break;
            }
        }
    }

    // Each row is a subset of the union of two rows, and their
    // intersection a subset of each, at every width regime.
    for (const std::size_t width :
         {1UL, 7UL, 16UL, 63UL, 64UL, 65UL, 127UL, 128UL, 200UL, 576UL}) {
        Rng pair(42 + width);
        const BitMatrix a = randomRow(pair, width, 0.4);
        const BitMatrix b = randomRow(pair, width, 0.4);
        const std::size_t n = a.rowWords();
        std::vector<std::uint64_t> both(n), either(n);
        for (std::size_t w = 0; w < n; ++w) {
            both[w] = a.row(0)[w] & b.row(0)[w];
            either[w] = a.row(0)[w] | b.row(0)[w];
        }
        EXPECT_TRUE(isSubsetOfWords(a.row(0).data(), either.data(), n))
            << "width " << width;
        EXPECT_TRUE(isSubsetOfWords(b.row(0).data(), either.data(), n))
            << "width " << width;
        EXPECT_TRUE(isSubsetOfWords(both.data(), a.row(0).data(), n))
            << "width " << width;
    }
}

TEST(WordKernels, SignatureIsExactForOneWord)
{
    BitMatrix v(1, 48);
    v.set(0, 0);
    v.set(0, 47);
    EXPECT_EQ(signatureOf(v.row(0)), v.row(0)[0]);
}

TEST(WordKernels, SignaturePreservesSubsetOrder)
{
    // If A ⊆ B then sig(A) & ~sig(B) == 0, at every width regime
    // (1 word, one-bit-per-word, grouped words).
    Rng rng(17);
    for (std::size_t width : {40UL, 320UL, 64UL * 70UL}) {
        for (int trial = 0; trial < 20; ++trial) {
            const BitMatrix b = randomRow(rng, width, 0.1);
            const BitMatrix drop = randomRow(rng, width, 0.5);
            const std::vector<std::uint64_t> a =
                withoutBits(b.row(0), drop.row(0));
            EXPECT_EQ(signatureOf(a) & ~signatureOf(b.row(0)), 0u)
                << "width " << width;
        }
    }
}

TEST(WordKernels, SignatureRejectsDisjointOccupancy)
{
    // Rows occupying different words must fail the signature filter.
    BitMatrix lo(1, 256), hi(1, 256);
    lo.set(0, 3);
    hi.set(0, 200);
    EXPECT_NE(signatureOf(lo.row(0)) & ~signatureOf(hi.row(0)), 0u);
    EXPECT_FALSE(isSubsetOfWords(lo.row(0).data(), hi.row(0).data(), 4));
}

TEST(WordKernels, LastSignatureMatchReturnsTheLastPassingCandidate)
{
    // Random spans, about a third of the candidates forced into the
    // query so most spans hold several passing ones: every prefix
    // [0, end) must return its last passing index, or end when none
    // passes.
    Rng rng(105);
    for (const std::size_t n : {0UL, 1UL, 7UL, 8UL, 9UL, 33UL, 100UL}) {
        for (const double density : {0.0, 0.3, 0.9}) {
            std::vector<std::uint64_t> sigs(n);
            if (n > 0)
                rng.nextBernoulliWords(sigs.data(), n, density);
            const std::uint64_t query = rng.next() | rng.next();
            for (std::uint64_t& sig : sigs)
                if (rng.nextBool(0.35))
                    sig &= query;
            for (std::size_t end = 0; end <= n; ++end) {
                std::size_t want = end;
                for (std::size_t t = 0; t < end; ++t)
                    if ((sigs[t] & ~query) == 0)
                        want = t;
                ASSERT_EQ(lastSignatureMatch(sigs.data(), end, query), want)
                    << "n=" << n << " end=" << end << " density=" << density;
            }
        }
    }

    // One passing candidate among failing ones, planted at every
    // position: the search must return exactly that position.
    const std::uint64_t query = 0x00ff00ff00ff00ffULL;
    const std::uint64_t fails = query | (1ULL << 8);
    const std::uint64_t passes = query & 0x0f0f0f0f0f0f0f0fULL;
    std::vector<std::uint64_t> sigs(33, fails);
    for (std::size_t p = 0; p < sigs.size(); ++p) {
        sigs[p] = passes;
        EXPECT_EQ(lastSignatureMatch(sigs.data(), sigs.size(), query), p)
            << "planted at " << p;
        sigs[p] = fails;
    }

    // Empty signatures pass every query, full ones only a full query:
    // the search returns the last candidate or, when none passes, n.
    const std::vector<std::uint64_t> zeros(9, 0), ones(9, ~0ULL);
    EXPECT_EQ(lastSignatureMatch(zeros.data(), 9, 0), 8u);
    EXPECT_EQ(lastSignatureMatch(ones.data(), 9, ~0ULL), 8u);
    EXPECT_EQ(lastSignatureMatch(ones.data(), 9, ~1ULL), 9u);
    EXPECT_EQ(lastSignatureMatch(zeros.data(), 0, 0), 0u);
}

TEST(WordKernels, ForEachSetBitWalksAscending)
{
    const std::uint64_t words[] = {0x9ULL, 0x0ULL, 0x8000000000000001ULL};
    std::vector<std::size_t> seen;
    forEachSetBit(words, 3, [&](std::size_t pos) { seen.push_back(pos); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 3, 128, 191}));
    forEachSetBit(words, 0, [&](std::size_t) { ADD_FAILURE(); });

    // A 130-bit row: a fresh one walks nothing, and set bits come back
    // in order across its three words.
    BitMatrix row(1, 130);
    forEachSetBit(row.row(0).data(), row.rowWords(),
                  [&](std::size_t) { ADD_FAILURE(); });
    for (const std::size_t c : {129UL, 3UL, 64UL})
        row.set(0, c);
    seen.clear();
    forEachSetBit(row.row(0).data(), row.rowWords(),
                  [&](std::size_t pos) { seen.push_back(pos); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 129}));
}

TEST(WordKernels, LastWordMaskCoversTheTail)
{
    EXPECT_EQ(lastWordMask(1), 0x1ULL);
    EXPECT_EQ(lastWordMask(17), 0x1ffffULL);
    EXPECT_EQ(lastWordMask(64), ~0ULL);
    EXPECT_EQ(lastWordMask(128), ~0ULL);
    EXPECT_EQ(lastWordMask(130), 0x3ULL);
}

/** One Bernoulli(p) word: a one-word nextBernoulliWords batch. */
std::uint64_t
bernoulliWord(Rng& rng, double p)
{
    std::uint64_t word = 0;
    rng.nextBernoulliWords(&word, 1, p);
    return word;
}

TEST(BernoulliWord, EdgeProbabilities)
{
    Rng rng(1);
    EXPECT_EQ(bernoulliWord(rng, 0.0), 0u);
    EXPECT_EQ(bernoulliWord(rng, -1.0), 0u);
    EXPECT_EQ(bernoulliWord(rng, 1.0), ~0ULL);
    EXPECT_EQ(bernoulliWord(rng, 1.5), ~0ULL);
}

TEST(BernoulliWord, MeanTracksProbability)
{
    Rng rng(5);
    for (double p : {0.05, 0.25, 0.5, 0.8}) {
        std::size_t ones = 0;
        const int words = 4000;
        for (int i = 0; i < words; ++i)
            ones += static_cast<std::size_t>(
                std::popcount(bernoulliWord(rng, p)));
        const double measured =
            static_cast<double>(ones) / (64.0 * words);
        EXPECT_NEAR(measured, p, 0.01) << "p=" << p;
    }
}

TEST(BernoulliWord, DeterministicPerSeed)
{
    Rng a(99), b(99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(bernoulliWord(a, 0.3), bernoulliWord(b, 0.3));
}

TEST(BernoulliWord, LanesAreIndependentAcrossDraws)
{
    // Adjacent draws must not repeat (catches accumulator reuse bugs).
    Rng rng(2);
    const std::uint64_t w1 = bernoulliWord(rng, 0.5);
    const std::uint64_t w2 = bernoulliWord(rng, 0.5);
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

TEST(Binomial, CountsTheMaskedWordsOfOneWordBatches)
{
    // nextBinomial draws in chunks of a fixed buffer: across chunk
    // boundaries it must still make the draws of ceil(n / 64)
    // one-word batches, count the first n bits, and leave the stream
    // where they leave it.
    for (const std::size_t n :
         {1UL, 63UL, 64UL, 65UL, 1023UL, 1024UL, 1025UL, 3000UL}) {
        Rng batched(31), serial(31);
        std::size_t want = 0;
        for (std::size_t bits = 0; bits < n; bits += 64) {
            const std::uint64_t word = bernoulliWord(serial, 0.35);
            want += static_cast<std::size_t>(std::popcount(
                n - bits >= 64 ? word : word & lastWordMask(n - bits)));
        }
        EXPECT_EQ(batched.nextBinomial(n, 0.35), want) << "n=" << n;
        EXPECT_EQ(batched.next(), serial.next()) << "n=" << n;
    }
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

TEST(RandomizeRow, WordBatchedHitsDensity)
{
    Rng rng(21);
    const BitMatrix v = randomRow(rng, 64 * 500 + 17, 0.15); // ragged tail
    const double measured =
        static_cast<double>(popcountWords(v.row(0).data(), v.rowWords())) /
        static_cast<double>(v.cols());
    EXPECT_NEAR(measured, 0.15, 0.01);
    // Tail invariant survives the bulk fill.
    EXPECT_EQ(v.row(0).back() >> 17, 0u);

    // Width sweep across word boundaries: the mean density holds, the
    // tail stays zero even at density 0.9, and the set-bit walk
    // rebuilds the row bit for bit.
    for (const std::size_t width :
         {1UL, 7UL, 16UL, 63UL, 64UL, 65UL, 70UL, 127UL, 128UL, 200UL,
          576UL}) {
        Rng sweep(99);
        double total = 0.0;
        const int trials = 50;
        for (int i = 0; i < trials; ++i)
            total += static_cast<double>(
                randomRow(sweep, width, 0.3).popcount());
        EXPECT_NEAR(total / (trials * static_cast<double>(width)), 0.3,
                    0.06)
            << "width " << width;

        const BitMatrix dense = randomRow(sweep, width, 0.9);
        if (width % 64 != 0) {
            EXPECT_EQ(dense.row(0).back() >> (width % 64), 0u)
                << "width " << width;
        }
        BitMatrix rebuilt(1, width);
        forEachSetBit(dense.row(0).data(), dense.rowWords(),
                      [&](std::size_t pos) { rebuilt.set(0, pos); });
        EXPECT_EQ(rebuilt, dense) << "width " << width;
    }
}

} // namespace
} // namespace prosperity
