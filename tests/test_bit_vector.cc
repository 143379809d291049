/**
 * @file
 * Unit tests for BitVector: the free-standing spike row the generator's
 * bank patterns and the neurons use, read through the word kernels.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bitmatrix/bit_vector.h"
#include "bitmatrix/word_kernels.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

/** Set bits of `v`, through the word-level helper. */
std::size_t
popcountOf(const BitVector& v)
{
    return popcountWords(v.words().data(), v.words().size());
}

/** Whether `a`'s spike set is a subset of `b`'s (the TCAM match). */
bool
isSubset(const BitVector& a, const BitVector& b)
{
    return isSubsetOfWords(a.words().data(), b.words().data(),
                           a.words().size());
}

TEST(BitVector, DefaultIsEmpty)
{
    BitVector v(16);
    EXPECT_EQ(v.size(), 16u);
    EXPECT_FALSE(anyWord(v.words().data(), v.words().size()));
    EXPECT_EQ(popcountOf(v), 0u);
}

TEST(BitVector, FromStringMatchesPaperFigures)
{
    // Fig. 1 (b) Row 1: "1001" sets positions 0 and 3.
    const BitVector v = BitVector::fromString("1001");
    EXPECT_TRUE(v.test(0));
    EXPECT_FALSE(v.test(1));
    EXPECT_FALSE(v.test(2));
    EXPECT_TRUE(v.test(3));
    EXPECT_EQ(popcountOf(v), 2u);
    EXPECT_EQ(v.setBits(), (std::vector<std::size_t>{0, 3}));
}

TEST(BitVector, SetAndClearBits)
{
    BitVector v(100);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(99);
    EXPECT_EQ(popcountOf(v), 4u);
    v.set(63, false);
    EXPECT_EQ(popcountOf(v), 3u);
    EXPECT_FALSE(v.test(63));
    EXPECT_TRUE(v.test(64));
}

TEST(BitVector, RandomizePreservesTailInvariant)
{
    Rng rng(4);
    BitVector v(70); // 64 + 6-bit tail
    for (int i = 0; i < 20; ++i) {
        v.randomize(rng, 0.9);
        EXPECT_EQ(v.words().back() >> 6, 0u);
        EXPECT_LE(popcountOf(v), 70u);
    }
}

TEST(BitVector, SubsetReflexiveAndEmpty)
{
    const BitVector v = BitVector::fromString("1011");
    const BitVector empty(4);
    EXPECT_TRUE(isSubset(v, v));
    EXPECT_TRUE(isSubset(empty, v));
    EXPECT_FALSE(isSubset(v, empty));
}

TEST(BitVector, SubsetMatchesPaperExample)
{
    // Fig. 2 (c): Row 1 (1001) is a proper subset of Row 4 (1101).
    const BitVector row1 = BitVector::fromString("1001");
    const BitVector row4 = BitVector::fromString("1101");
    EXPECT_TRUE(isSubset(row1, row4));
    EXPECT_FALSE(isSubset(row4, row1));
}

TEST(BitVector, XorOfSubsetEqualsSetDifference)
{
    // Fig. 5 (b) step 6: 1011 XOR 1001 == 0010.
    const BitVector row2 = BitVector::fromString("1011");
    const BitVector row1 = BitVector::fromString("1001");
    EXPECT_EQ(row2.words()[0] ^ row1.words()[0],
              BitVector::fromString("0010").words()[0]);
}

TEST(BitVector, SetBitsWalkAcrossWords)
{
    BitVector v(130);
    EXPECT_TRUE(v.setBits().empty());
    v.set(3);
    v.set(64);
    v.set(129);
    EXPECT_EQ(v.setBits(), (std::vector<std::size_t>{3, 64, 129}));
}

TEST(BitVector, WordLayoutContract)
{
    // words() spans exactly ceil(size / 64) words, and a full-density
    // fill leaves the tail bits of the last word zero.
    for (std::size_t bits :
         {1UL, 10UL, 64UL, 65UL, 511UL, 512UL, 513UL, 1000UL}) {
        BitVector v(bits);
        EXPECT_EQ(v.words().size(), (bits + 63) / 64) << "bits=" << bits;

        Rng rng(bits);
        v.randomize(rng, 1.0);
        EXPECT_EQ(popcountOf(v), bits) << "bits=" << bits;
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
    EXPECT_EQ(v.words().size(), 0u);
    EXPECT_TRUE(v.setBits().empty());
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
        total += static_cast<double>(popcountOf(v));
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
    std::vector<std::uint64_t> both(a.words().size());
    std::vector<std::uint64_t> either(a.words().size());
    for (std::size_t w = 0; w < both.size(); ++w) {
        both[w] = a.words()[w] & b.words()[w];
        either[w] = a.words()[w] | b.words()[w];
    }
    const std::size_t n = both.size();
    EXPECT_TRUE(isSubsetOfWords(a.words().data(), either.data(), n));
    EXPECT_TRUE(isSubsetOfWords(b.words().data(), either.data(), n));
    EXPECT_TRUE(isSubsetOfWords(both.data(), a.words().data(), n));
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
