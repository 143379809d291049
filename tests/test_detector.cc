/**
 * @file
 * Tests for the detector stage of prefix selection (Sec. V-B) as
 * DistinctRows implements it: the in-place reads of tile rows from a
 * layer matrix, the number-of-ones count of every row, the valid-bit
 * masking of empty rows, and the copy table and the signature search
 * over the distinct rows against the all-pairs selectPrefixesNaive()
 * oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "bitmatrix/word_kernels.h"
#include "copy_path_tiles.h"
#include "core/prefix_select.h"
#include "core/tile_pipeline.h"
#include "sim/rng.h"
#include "tile_helpers.h"

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

/** The selection over all of `tile` against the oracle's. */
void
expectMatchesNaive(const BitMatrix& tile)
{
    expectIdentical(prefixesOf(tile), selectPrefixesNaive(tile));
}

TEST(Detection, PopcountsMatchRows)
{
    // Fig. 5 (a): the 6-row tile the paper walks through.
    const PrefixSelection sel = prefixesOf(fromStrings(
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
    const PrefixSelection sel = prefixesOf(
        fromStrings({"0000", "1010", "0000", "0000"}));
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
    const PrefixSelection sel = prefixesOf(one_row);
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
    const PrefixSelection sel = prefixesOf(tile);
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
    const PrefixSelection sel = prefixesOf(tile);
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
    const PrefixSelection sel = prefixesOf(tile);
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

// ---- views: tiles read in place from a layer matrix -------------------

/**
 * `distinct` over the view of `matrix` at (r0, c0) with at most m x k
 * bits against the oracles on the same tile built bit by bit: its
 * shape, each non-empty row's value words (every bit, and a zero tail
 * where the matrix has bits past the tile), the selection and the
 * summary. Returns the summary's ones.
 */
std::size_t
expectViewMatchesNaive(DistinctRows& distinct, const BitMatrix& matrix,
                       std::size_t r0, std::size_t c0, std::size_t m,
                       std::size_t k)
{
    SCOPED_TRACE(::testing::Message()
                 << matrix.rows() << "x" << matrix.cols() << " at (" << r0
                 << ", " << c0 << ") tile " << m << "x" << k);
    const BitMatrix tile = bitByBitTile(matrix, r0, c0, m, k);
    distinct.select(matrix, r0, c0, m, k);
    EXPECT_EQ(distinct.rows(), tile.rows());
    EXPECT_EQ(distinct.cols(), tile.cols());
    if (distinct.rows() != tile.rows() || distinct.cols() != tile.cols())
        return 0;
    std::size_t wrong = 0;
    for (std::size_t r = 0; r < tile.rows(); ++r) {
        const std::int32_t t = distinct.valueOf(r);
        wrong += t == kNone
                     ? anyWord(tile.row(r).data(), tile.rowWords())
                     : !std::ranges::equal(
                           distinct.words(static_cast<std::size_t>(t)),
                           tile.row(r));
    }
    EXPECT_EQ(wrong, 0u) << "rows whose words differ";
    expectIdentical(selectPrefixes(distinct), selectPrefixesNaive(tile));
    const TileSummary got = summarizeTile(distinct);
    const TileSummary want = summarizeTileNaive(tile);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.cols, want.cols);
    EXPECT_EQ(got.ones, want.ones);
    EXPECT_EQ(got.pattern_ones, want.pattern_ones);
    EXPECT_EQ(got.exact, want.exact);
    EXPECT_EQ(got.partial, want.partial);
    EXPECT_EQ(got.walk, want.walk);
    return got.ones;
}

TEST(DetectionViews, InPlaceReadsMatchTilesBuiltBitByBit)
{
    // Each tile row word shifts and merges at most two words of the
    // matrix row, so the cases are matrix widths on both sides of the
    // word boundaries, origins with col0 % 64 != 0, rows that straddle
    // two words, and bottom and right edges that crop the tile. The
    // all-ones matrices set every bit past a tile, which must not leak
    // into it, and a read in the last row or at the right edge must
    // not read past the matrix. One workspace runs every case, growing
    // and shrinking, as a pass over a layer's tiles reuses its own.
    DistinctRows distinct;

    // The paper's Fig. 1 matrix: a 3 x 2 sub-tile, a 256 x 16 tile
    // cropped to 2 x 2, and views of the whole matrix.
    const BitMatrix fig1 = fromStrings(
        {"1010", "1001", "1011", "0010", "1101", "1101"});
    expectViewMatchesNaive(distinct, fig1, 1, 1, 3, 2);
    expectViewMatchesNaive(distinct, fig1, 4, 2, 256, 16);
    for (const std::size_t size : {6UL, 100UL})
        expectViewMatchesNaive(distinct, fig1, 0, 0, size, size);

    // A 20 x 70 tile at (10, 60): two-word rows, each word merging two
    // source words.
    Rng rng(3);
    BitMatrix wide(40, 300);
    wide.randomize(rng, 0.3);
    expectViewMatchesNaive(distinct, wide, 10, 60, 20, 70);

    // Random and all-ones matrices of 37 rows: every origin column
    // inside the matrix, every tile width, and a tile from the top
    // and one cropped at the bottom. The sparse ones give the wide
    // rows' subset search real work.
    rng = Rng(41);
    Rng sparse_rng(43);
    for (const std::size_t cols :
         {1UL, 15UL, 16UL, 17UL, 63UL, 64UL, 65UL, 130UL, 300UL}) {
        BitMatrix dense(37, cols);
        dense.randomize(rng, 0.5);
        BitMatrix sparse(37, cols);
        sparse.randomize(sparse_rng, 0.1);
        BitMatrix ones(37, cols);
        ones.randomize(sparse_rng, 1.0);
        for (const BitMatrix* matrix : {&dense, &sparse, &ones})
            for (const std::size_t c0 :
                 {0UL, 1UL, 7UL, 16UL, 33UL, 63UL, 64UL, 65UL, 127UL,
                  200UL, 299UL}) {
                if (c0 >= cols)
                    continue;
                for (const std::size_t k :
                     {1UL, 8UL, 16UL, 17UL, 24UL, 63UL, 64UL, 65UL, 100UL,
                      130UL, 300UL})
                    for (const auto& [r0, m] :
                         {std::pair<std::size_t, std::size_t>{0, 256},
                          {29, 16}})
                        expectViewMatchesNaive(distinct, *matrix, r0, c0,
                                               m, k);
            }
    }

    // Edge shapes at every width of the layout and tail-masking
    // sweeps: a 16-row tile at (5, 1) two columns short of the right
    // edge, and a 6-row matrix's tile at (1, cols / 3) cropped at the
    // bottom and the right.
    for (const std::size_t cols :
         {1UL, 5UL, 15UL, 16UL, 17UL, 63UL, 64UL, 65UL, 127UL, 128UL,
          130UL, 300UL, 511UL, 512UL, 513UL, 1000UL}) {
        Rng tall_rng(cols + 17);
        BitMatrix tall(48, cols);
        tall.randomize(tall_rng, 0.3);
        tall.set(0, cols - 1);
        tall.set(0, 0, false);
        expectViewMatchesNaive(distinct, tall, 5, 1, 16,
                               cols > 2 ? cols - 2 : cols);
        Rng shallow_rng(cols);
        BitMatrix shallow(6, cols);
        shallow.randomize(shallow_rng, 0.5);
        expectViewMatchesNaive(distinct, shallow, 1, cols / 3, 6, cols);
    }

    // Every sampled 32 x 16 tile of a 70 x 45 matrix: the cropped
    // edge tiles (the last is 6 x 13) cover every bit once.
    rng = Rng(9);
    BitMatrix layer(70, 45);
    layer.randomize(rng, 0.4);
    TileConfig tile;
    tile.m = 32;
    tile.k = 16;
    std::size_t ones = 0;
    for (const auto& [r0, c0] : sampleTiles(70, 45, tile, 0).origins)
        ones += expectViewMatchesNaive(distinct, layer, r0, c0, tile.m,
                                       tile.k);
    EXPECT_EQ(ones, layer.popcount());
    EXPECT_EQ(distinct.rows(), 6u);
    EXPECT_EQ(distinct.cols(), 13u);
}

} // namespace
} // namespace prosperity
