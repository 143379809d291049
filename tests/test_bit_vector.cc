/**
 * @file
 * Unit tests for BitVector: the packed spike-row primitive every PPU
 * stage operates on.
 */

#include <gtest/gtest.h>

#include "bitmatrix/bit_vector.h"
#include "bitmatrix/word_kernels.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

/** Word-by-word XOR: BitVector has no XOR operator. */
BitVector
xorOf(const BitVector& a, const BitVector& b)
{
    BitVector out = a;
    for (std::size_t w = 0; w < a.wordCount(); ++w)
        out.setWord(w, a.words()[w] ^ b.words()[w]);
    return out;
}

/** Whether any bit of `v` is set, through the word-level helper. */
bool
anySet(const BitVector& v)
{
    return anyWord(v.words().data(), v.wordCount());
}

TEST(BitVector, DefaultIsEmpty)
{
    BitVector v(16);
    EXPECT_EQ(v.size(), 16u);
    EXPECT_FALSE(anySet(v));
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, FromStringMatchesPaperFigures)
{
    // Fig. 1 (b) Row 1: "1001" sets positions 0 and 3.
    const BitVector v = BitVector::fromString("1001");
    EXPECT_TRUE(v.test(0));
    EXPECT_FALSE(v.test(1));
    EXPECT_FALSE(v.test(2));
    EXPECT_TRUE(v.test(3));
    EXPECT_EQ(v.popcount(), 2u);
    EXPECT_EQ(v.toString(), "1001");
}

TEST(BitVector, SetAndClearBits)
{
    BitVector v(100);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(99);
    EXPECT_EQ(v.popcount(), 4u);
    v.set(63, false);
    EXPECT_EQ(v.popcount(), 3u);
    EXPECT_FALSE(v.test(63));
    v.clear();
    EXPECT_FALSE(anySet(v));
}

TEST(BitVector, SetWordMasksStaleHighBitsOnNonAlignedSizes)
{
    // The single masked-write path must make the tail invariant
    // impossible to bypass: a setWord carrying garbage above size()
    // leaves no stale high bits behind.
    for (std::size_t bits : {1UL, 17UL, 63UL, 65UL, 100UL, 129UL}) {
        BitVector v(bits);
        const std::size_t last = v.words().size() - 1;
        v.setWord(last, ~0ULL); // all 64 bits, including phantom tail
        const std::size_t tail = bits % 64;
        if (tail != 0) {
            EXPECT_EQ(v.words().back() >> tail, 0u) << "bits=" << bits;
            EXPECT_EQ(v.popcount(), tail) << "bits=" << bits;
        }
        // Canonical-form consequences: equality and hash see only
        // logical bits.
        BitVector w(bits);
        for (std::size_t pos = last * 64; pos < bits; ++pos)
            w.set(pos);
        EXPECT_EQ(v, w) << "bits=" << bits;
        EXPECT_EQ(v.hash(), w.hash()) << "bits=" << bits;
    }
}

TEST(BitVector, RandomizePreservesTailInvariant)
{
    Rng rng(4);
    BitVector v(70); // 64 + 6-bit tail
    for (int i = 0; i < 20; ++i) {
        v.randomize(rng, 0.9);
        EXPECT_EQ(v.words().back() >> 6, 0u);
        EXPECT_LE(v.popcount(), 70u);
    }
}

TEST(BitVector, SubsetReflexiveAndEmpty)
{
    const BitVector v = BitVector::fromString("1011");
    const BitVector empty(4);
    EXPECT_TRUE(v.isSubsetOf(v));
    EXPECT_TRUE(empty.isSubsetOf(v));
    EXPECT_FALSE(v.isSubsetOf(empty));
}

TEST(BitVector, SubsetMatchesPaperExample)
{
    // Fig. 2 (c): Row 1 (1001) is a proper subset of Row 4 (1101).
    const BitVector row1 = BitVector::fromString("1001");
    const BitVector row4 = BitVector::fromString("1101");
    EXPECT_TRUE(row1.isSubsetOf(row4));
    EXPECT_FALSE(row4.isSubsetOf(row1));
}

TEST(BitVector, XorOfSubsetEqualsSetDifference)
{
    // Fig. 5 (b) step 6: 1011 XOR 1001 == 0010.
    const BitVector row2 = BitVector::fromString("1011");
    const BitVector row1 = BitVector::fromString("1001");
    EXPECT_EQ(xorOf(row2, row1).toString(), "0010");
    EXPECT_EQ(row2.andNot(row1).toString(), "0010");
}

TEST(BitVector, AndNotDiffersFromXorWhenNotSubset)
{
    const BitVector a = BitVector::fromString("1100");
    const BitVector b = BitVector::fromString("0110");
    EXPECT_EQ(xorOf(a, b).toString(), "1010");
    EXPECT_EQ(a.andNot(b).toString(), "1000");
}

TEST(BitVector, FindFirstAndNextWalkAllBits)
{
    BitVector v(130);
    v.set(3);
    v.set(64);
    v.set(129);
    EXPECT_EQ(v.findFirst(), 3u);
    EXPECT_EQ(v.findNext(3), 64u);
    EXPECT_EQ(v.findNext(64), 129u);
    EXPECT_EQ(v.findNext(129), 130u);

    const auto bits = v.setBits();
    ASSERT_EQ(bits.size(), 3u);
    EXPECT_EQ(bits[0], 3u);
    EXPECT_EQ(bits[1], 64u);
    EXPECT_EQ(bits[2], 129u);
}

TEST(BitVector, FindFirstOnEmptyReturnsSize)
{
    const BitVector v(70);
    EXPECT_EQ(v.findFirst(), 70u);
}

TEST(BitVector, BitwiseOperatorsAgreeWithPerBitSemantics)
{
    Rng rng(5);
    BitVector a(77), b(77);
    a.randomize(rng, 0.5);
    b.randomize(rng, 0.3);
    const BitVector o = a | b;
    const BitVector n = a & b;
    const BitVector x = xorOf(a, b);
    for (std::size_t i = 0; i < 77; ++i) {
        EXPECT_EQ(o.test(i), a.test(i) || b.test(i));
        EXPECT_EQ(n.test(i), a.test(i) && b.test(i));
        EXPECT_EQ(x.test(i), a.test(i) != b.test(i));
    }
}

TEST(BitVector, HashDistinguishesNearbyPatterns)
{
    const BitVector a = BitVector::fromString("1010");
    const BitVector b = BitVector::fromString("1011");
    const BitVector c = BitVector::fromString("1010");
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), c.hash());
}

TEST(BitVector, SetWordMasksTailBits)
{
    BitVector v(10);
    v.setWord(0, ~0ULL);
    EXPECT_EQ(v.popcount(), 10u);
}

TEST(BitVector, WordLayoutContract)
{
    // words() spans exactly ceil(size / 64) words, across the inline /
    // heap storage boundary, and a full-density fill leaves the tail
    // bits of the last word zero.
    for (std::size_t bits :
         {1UL, 10UL, 64UL, 65UL, 511UL, 512UL, 513UL, 1000UL}) {
        BitVector v(bits);
        const std::size_t logical = (bits + 63) / 64;
        EXPECT_EQ(v.wordCount(), logical) << "bits=" << bits;
        EXPECT_EQ(v.words().size(), logical) << "bits=" << bits;

        Rng rng(bits);
        v.randomize(rng, 1.0);
        EXPECT_EQ(v.popcount(), bits) << "bits=" << bits;
        if (bits % 64 != 0) {
            EXPECT_EQ(v.words().back() >> (bits % 64), 0u)
                << "bits=" << bits;
        }
        const BitVector copy = v;
        EXPECT_EQ(copy, v) << "bits=" << bits;
    }
}

TEST(BitVector, EmptyVectorHasNoWords)
{
    const BitVector v(0);
    EXPECT_EQ(v.size(), 0u);
    EXPECT_EQ(v.wordCount(), 0u);
    EXPECT_EQ(v.words().size(), 0u);
    EXPECT_FALSE(anySet(v));
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, EqualityRequiresSameWidth)
{
    const BitVector a(8);
    const BitVector b(9);
    EXPECT_FALSE(a == b);
}

/** Width sweep: invariants hold across word boundaries. */
class BitVectorWidth : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BitVectorWidth, RandomizeHitsRequestedDensity)
{
    const std::size_t width = GetParam();
    Rng rng(99);
    double total = 0.0;
    const int trials = 50;
    for (int i = 0; i < trials; ++i) {
        BitVector v(width);
        v.randomize(rng, 0.3);
        total += static_cast<double>(v.popcount());
    }
    const double mean_density =
        total / (static_cast<double>(trials) * static_cast<double>(width));
    EXPECT_NEAR(mean_density, 0.3, 0.06);
}

TEST_P(BitVectorWidth, SubsetOfUnionHolds)
{
    const std::size_t width = GetParam();
    Rng rng(42 + width);
    BitVector a(width), b(width);
    a.randomize(rng, 0.4);
    b.randomize(rng, 0.4);
    EXPECT_TRUE(a.isSubsetOf(a | b));
    EXPECT_TRUE(b.isSubsetOf(a | b));
    EXPECT_TRUE((a & b).isSubsetOf(a));
}

TEST_P(BitVectorWidth, SetBitsRoundTrips)
{
    const std::size_t width = GetParam();
    Rng rng(7 + width);
    BitVector v(width);
    v.randomize(rng, 0.25);
    BitVector rebuilt(width);
    for (auto pos : v.setBits())
        rebuilt.set(pos);
    EXPECT_EQ(v, rebuilt);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidth,
                         ::testing::Values(1, 7, 16, 63, 64, 65, 127, 128,
                                           200, 576));

} // namespace
} // namespace prosperity
