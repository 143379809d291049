/**
 * @file
 * Tests for the detector stage of prefix selection (Sec. V-B) as
 * selectPrefixes() implements it: the number-of-ones count of every
 * row, the valid-bit masking of empty rows, and the fast counting-sort
 * and signature-scan search against the all-pairs selectPrefixesNaive()
 * oracle.
 */

#include <gtest/gtest.h>

#include <utility>

#include "core/prefix_select.h"
#include "sim/rng.h"
#include "whole_tile.h"

namespace prosperity {
namespace {

constexpr std::int32_t kNone = PrefixSelection::kNoPrefix;

/** Row-by-row comparison of two selections with diagnostics. */
void
expectIdentical(const PrefixSelection& fast, const PrefixSelection& naive)
{
    ASSERT_EQ(fast.rows(), naive.rows());
    ASSERT_EQ(fast.prefix.size(), naive.prefix.size());
    for (std::size_t i = 0; i < fast.rows(); ++i) {
        EXPECT_EQ(fast.popcounts[i], naive.popcounts[i]) << "row " << i;
        EXPECT_EQ(fast.prefix[i], naive.prefix[i]) << "row " << i;
    }
}

void
expectMatchesNaive(const BitMatrix& tile)
{
    expectIdentical(selectPrefixes(wholeTile(tile)),
                    selectPrefixesNaive(tile));
}

TEST(Detection, PopcountsMatchRows)
{
    // Fig. 5 (a): the 6-row tile the paper walks through.
    const PrefixSelection sel =
        selectPrefixes(wholeTile(BitMatrix::fromStrings(
            {"1010", "1001", "1011", "0010", "1101", "1101"})));
    ASSERT_EQ(sel.rows(), 6u);
    const std::size_t expected[] = {2, 2, 3, 1, 3, 3};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(sel.popcounts[i], expected[i]) << "row " << i;
}

TEST(Detection, EmptyRowsNeverMatch)
{
    // Empty rows are trivially subsets but carry no reusable result,
    // and they have nothing to compute.
    const PrefixSelection sel = selectPrefixes(wholeTile(
        BitMatrix::fromStrings({"0000", "1010", "0000", "0000"})));
    for (std::size_t i = 0; i < sel.rows(); ++i)
        EXPECT_EQ(sel.prefix[i], kNone) << "row " << i;
}

// ---- fast == oracle ---------------------------------------------------

TEST(DetectionGolden, OptimizedMatchesNaiveOnRandomTiles)
{
    // Across densities and shapes, including odd widths (31x7) and
    // multi-word rows (k = 48, 130) where the signature prefilter is
    // inexact and the subset check runs.
    Rng rng(101);
    for (double density : {0.02, 0.1, 0.3, 0.6, 0.95}) {
        for (const auto& [rows, cols] :
             {std::pair<std::size_t, std::size_t>{256, 16},
              {64, 16}, {100, 48}, {31, 7}, {256, 130}}) {
            BitMatrix tile(rows, cols);
            tile.randomize(rng, density);
            SCOPED_TRACE(::testing::Message()
                         << rows << "x" << cols << " d=" << density);
            expectMatchesNaive(tile);
        }
    }
}

TEST(DetectionGolden, OptimizedMatchesNaiveWithEmptyRows)
{
    Rng rng(55);
    BitMatrix tile(128, 16);
    tile.randomize(rng, 0.2);
    // A band of all-zero rows plus some exact duplicates.
    for (std::size_t r = 40; r < 60; ++r)
        tile.row(r).clear();
    for (std::size_t r = 100; r < 110; ++r)
        tile.row(r) = tile.row(r - 100);
    expectMatchesNaive(tile);
}

TEST(DetectionGolden, OptimizedMatchesNaiveOnClusteredTiles)
{
    // Subset-heavy tiles (the structure ProSparsity targets) exercise
    // the popcount buckets and the backward survivor walk much harder
    // than i.i.d. noise does.
    Rng rng(77);
    for (const std::size_t cols : {16UL, 96UL}) {
        for (int trial = 0; trial < 5; ++trial) {
            BitMatrix tile(96, cols);
            BitVector base(cols);
            base.randomize(rng, 0.6);
            for (std::size_t r = 0; r < tile.rows(); ++r) {
                BitVector drop(cols);
                drop.randomize(rng, 0.4);
                tile.row(r) = base.andNot(drop);
            }
            SCOPED_TRACE(::testing::Message()
                         << "cols=" << cols << " trial " << trial);
            expectMatchesNaive(tile);
        }
    }
}

TEST(DetectionGolden, DegenerateTiles)
{
    expectMatchesNaive(BitMatrix());
    expectMatchesNaive(BitMatrix(32, 16));
    BitMatrix one_row(1, 16);
    one_row.set(0, 3);
    expectMatchesNaive(one_row);
    const PrefixSelection sel = selectPrefixes(wholeTile(one_row));
    EXPECT_EQ(sel.popcounts[0], 1u);
    EXPECT_EQ(sel.prefix[0], kNone);
}

} // namespace
} // namespace prosperity
