/**
 * @file
 * Tests for the detector stage of prefix selection (Sec. V-B) as
 * selectPrefixes() implements it: the number-of-ones count of every
 * row, the valid-bit masking of empty rows, and the copy table and the
 * signature search over the distinct rows against the all-pairs
 * selectPrefixesNaive() oracle.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "copy_path_tiles.h"
#include "core/prefix_select.h"
#include "sim/rng.h"

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
    EXPECT_EQ(fast.order, naive.order);
}

/**
 * selectPrefixes on an extractTile copy of `matrix` against the oracle
 * on `matrix` itself, so the comparison checks the extraction too.
 */
void
expectMatchesNaive(const BitMatrix& matrix)
{
    BitMatrix tile;
    extractTile(matrix, 0, 0, matrix.rows(), matrix.cols(), tile);
    expectIdentical(selectPrefixes(tile), selectPrefixesNaive(matrix));
}

TEST(Detection, PopcountsMatchRows)
{
    // Fig. 5 (a): the 6-row tile the paper walks through.
    const PrefixSelection sel = selectPrefixes(BitMatrix::fromStrings(
        {"1010", "1001", "1011", "0010", "1101", "1101"}));
    ASSERT_EQ(sel.rows(), 6u);
    const std::size_t expected[] = {2, 2, 3, 1, 3, 3};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(sel.popcounts[i], expected[i]) << "row " << i;
}

TEST(Detection, EmptyRowsNeverMatch)
{
    // Empty rows are trivially subsets but carry no reusable result,
    // and they have nothing to compute.
    const PrefixSelection sel = selectPrefixes(
        BitMatrix::fromStrings({"0000", "1010", "0000", "0000"}));
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
        for (std::size_t c = 0; c < tile.cols(); ++c)
            tile.set(r, c, false);
    for (std::size_t r = 100; r < 110; ++r)
        tile.copyRow(r, r - 100);
    expectMatchesNaive(tile);
}

TEST(DetectionGolden, OptimizedMatchesNaiveOnClusteredTiles)
{
    // Subset-heavy tiles (the structure ProSparsity targets) exercise
    // the popcount buckets and the backward candidate search much
    // harder than i.i.d. noise does.
    Rng rng(77);
    for (const std::size_t cols : {16UL, 96UL}) {
        for (int trial = 0; trial < 5; ++trial) {
            BitMatrix tile(96, cols);
            BitMatrix base(1, cols);
            base.randomizeRow(0, rng, 0.6);
            BitMatrix drop(1, cols);
            for (std::size_t r = 0; r < tile.rows(); ++r) {
                drop.randomizeRow(0, rng, 0.4);
                for (std::size_t c = 0; c < cols; ++c)
                    tile.set(r, c, base.test(0, c) && !drop.test(0, c));
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
    const PrefixSelection sel = selectPrefixes(one_row);
    EXPECT_EQ(sel.popcounts[0], 1u);
    EXPECT_EQ(sel.prefix[0], kNone);
}

// ---- copies: repeats take their previous copy -------------------------

TEST(DetectionCopies, SignatureTwinsAreNotCopies)
{
    // Rows with k > 64, equal popcounts and equal signatures but other
    // words must not be merged as copies; true copies must.
    const BitMatrix tile = copy_path_tiles::signatureTwins();
    expectMatchesNaive(tile);
    const PrefixSelection sel = selectPrefixes(tile);
    const std::int32_t expected[] = {kNone, kNone, 0, kNone, 1, 6, 2, kNone};
    ASSERT_EQ(sel.rows(), 8u);
    for (std::size_t i = 0; i < sel.rows(); ++i)
        EXPECT_EQ(sel.prefix[i], expected[i]) << "row " << i;
}

TEST(DetectionCopies, TallTileRepeatsFarApart)
{
    const BitMatrix tile = copy_path_tiles::tallRepeats();
    expectMatchesNaive(tile);
    // Every non-empty row past the first 500 has a copy above it, so
    // its prefix is an earlier identical row.
    const PrefixSelection sel = selectPrefixes(tile);
    for (std::size_t i = 500; i < sel.rows(); ++i) {
        if (sel.popcounts[i] == 0)
            continue;
        ASSERT_NE(sel.prefix[i], kNone) << "row " << i;
        const auto p = static_cast<std::size_t>(sel.prefix[i]);
        EXPECT_LT(p, i);
        EXPECT_EQ(tile.row(p)[0], tile.row(i)[0]) << "row " << i;
    }
}

TEST(DetectionCopies, RepeatsBetweenEmptyRows)
{
    const BitMatrix tile = copy_path_tiles::repeatsBetweenEmptyRows();
    expectMatchesNaive(tile);
    const PrefixSelection sel = selectPrefixes(tile);
    for (std::size_t i = 1; i < sel.rows(); i += 3)
        EXPECT_EQ(sel.prefix[i], kNone) << "empty row " << i;
}

TEST(DetectionCopies, EveryTileOfUpToFourRows)
{
    copy_path_tiles::forEachSmallTile(
        [](const BitMatrix& tile, const std::string& label) {
            SCOPED_TRACE(label);
            expectMatchesNaive(tile);
        });
}

TEST(DetectionCopies, CopyTilesAndEdgeShapes)
{
    const auto check = [](const BitMatrix& tile, const std::string& label) {
        SCOPED_TRACE(label);
        expectMatchesNaive(tile);
    };
    copy_path_tiles::forEachCopyTile(check);
    copy_path_tiles::forEachShapeTile(check);
}

} // namespace
} // namespace prosperity
