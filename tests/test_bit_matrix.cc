/**
 * @file
 * Unit tests for BitMatrix: spike-matrix storage, tile extraction,
 * tile sampling, density.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"
#include "bitmatrix/word_kernels.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

/** Tile bit (r, c), read straight from the row words. */
bool
tileBit(const TileWords& t, std::size_t r, std::size_t c)
{
    return (t.row(r)[c / 64] >> (c % 64)) & 1ULL;
}

/** Row r of a tile as a "1001"-style string, column 0 first. */
std::string
rowString(const TileWords& t, std::size_t r)
{
    std::string out(t.cols, '0');
    for (std::size_t c = 0; c < t.cols; ++c)
        if (tileBit(t, r, c))
            out[c] = '1';
    return out;
}

BitMatrix
paperFig1Matrix()
{
    // The 6x4 spike matrix of Fig. 1 (b) / Fig. 2 (a).
    return BitMatrix::fromStrings({
        "1010", // Row 0
        "1001", // Row 1
        "1011", // Row 2
        "0010", // Row 3
        "1101", // Row 4
        "1101", // Row 5
    });
}

TEST(BitMatrix, FromStringsShapeAndBits)
{
    const BitMatrix m = paperFig1Matrix();
    EXPECT_EQ(m.rows(), 6u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_TRUE(m.test(0, 0));
    EXPECT_FALSE(m.test(0, 1));
    EXPECT_TRUE(m.test(5, 3));
    EXPECT_EQ(m.popcount(), 14u); // 14 spikes = 14 bit-sparse OPs (Fig. 1)
}

TEST(BitMatrix, DensityMatchesPopcount)
{
    const BitMatrix m = paperFig1Matrix();
    EXPECT_DOUBLE_EQ(m.density(), 14.0 / 24.0);
}

TEST(BitMatrix, TileExtractsSubmatrix)
{
    const BitMatrix m = paperFig1Matrix();
    TileWords t;
    extractTile(m, 1, 1, 3, 2, t);
    EXPECT_EQ(t.rows, 3u);
    EXPECT_EQ(t.cols, 2u);
    EXPECT_EQ(t.row_words, 1u);
    // Rows 1..3, cols 1..2: "00", "01", "01".
    EXPECT_EQ(rowString(t, 0), "00");
    EXPECT_EQ(rowString(t, 1), "01");
    EXPECT_EQ(rowString(t, 2), "01");
}

TEST(BitMatrix, TileCropsAtEdges)
{
    const BitMatrix m = paperFig1Matrix();
    TileWords t;
    extractTile(m, 4, 2, 256, 16, t);
    EXPECT_EQ(t.rows, 2u);
    EXPECT_EQ(t.cols, 2u);
    EXPECT_EQ(t.words.size(), 2u);
    EXPECT_EQ(rowString(t, 0), "01");
    EXPECT_EQ(rowString(t, 1), "01");
}

TEST(BitMatrix, FullTileIsIdentity)
{
    const BitMatrix m = paperFig1Matrix();
    TileWords t;
    for (const std::size_t size : {6UL, 100UL}) {
        extractTile(m, 0, 0, size, size, t);
        ASSERT_EQ(t.rows, m.rows());
        ASSERT_EQ(t.cols, m.cols());
        for (std::size_t r = 0; r < m.rows(); ++r)
            EXPECT_TRUE(std::ranges::equal(t.row(r), m.row(r).words()))
                << "size " << size << " row " << r;
    }
}

TEST(BitMatrix, TilePreservesBitsAcrossWordBoundaries)
{
    Rng rng(3);
    BitMatrix m(40, 300);
    m.randomize(rng, 0.3);
    TileWords t;
    extractTile(m, 10, 60, 20, 70, t);
    ASSERT_EQ(t.rows, 20u);
    ASSERT_EQ(t.cols, 70u);
    ASSERT_EQ(t.row_words, 2u);
    for (std::size_t r = 0; r < t.rows; ++r)
        for (std::size_t c = 0; c < t.cols; ++c)
            EXPECT_EQ(tileBit(t, r, c), m.test(10 + r, 60 + c));
}

TEST(BitMatrix, ExtractTileMatchesBitwiseReadsOnRandomMatrices)
{
    // Widths on both sides of the word boundaries, bottom and right
    // edges that crop the tile, and origins with col0 % 64 != 0 whose
    // output words merge two source words. Every extracted bit must
    // equal BitMatrix::test, and the bits past cols in each row's last
    // word must be zero — the all-ones matrices set every source bit
    // beyond the tile. One buffer is refilled throughout, growing and
    // shrinking, as the hot loops reuse theirs.
    Rng rng(41);
    TileWords t;
    for (const std::size_t cols :
         {1UL, 15UL, 16UL, 17UL, 63UL, 64UL, 65UL, 130UL, 300UL}) {
        BitMatrix random(37, cols);
        random.randomize(rng, 0.5);
        BitMatrix ones(37, cols);
        for (std::size_t r = 0; r < ones.rows(); ++r)
            for (std::size_t w = 0; w < ones.row(r).wordCount(); ++w)
                ones.row(r).setWord(w, ~0ULL);
        for (const BitMatrix* m : {&random, &ones}) {
            for (const std::size_t c0 :
                 {0UL, 1UL, 7UL, 16UL, 33UL, 63UL, 64UL, 65UL, 127UL,
                  200UL, 299UL}) {
                if (c0 >= cols)
                    continue;
                for (const std::size_t tile_cols :
                     {1UL, 16UL, 17UL, 64UL, 65UL, 130UL, 300UL}) {
                    for (const auto& [r0, tile_rows] :
                         {std::pair<std::size_t, std::size_t>{0, 256},
                          {29, 16}}) {
                        SCOPED_TRACE(::testing::Message()
                                     << "cols=" << cols << " origin ("
                                     << r0 << ", " << c0 << ") tile "
                                     << tile_rows << "x" << tile_cols
                                     << (m == &ones ? " ones" : ""));
                        extractTile(*m, r0, c0, tile_rows, tile_cols, t);
                        ASSERT_EQ(t.rows, std::min(37 - r0, tile_rows));
                        ASSERT_EQ(t.cols, std::min(cols - c0, tile_cols));
                        ASSERT_EQ(t.row_words, (t.cols + 63) / 64);
                        ASSERT_EQ(t.words.size(), t.rows * t.row_words);
                        std::size_t wrong = 0;
                        for (std::size_t r = 0; r < t.rows; ++r)
                            for (std::size_t c = 0; c < t.cols; ++c)
                                wrong += tileBit(t, r, c) !=
                                         m->test(r0 + r, c0 + c);
                        EXPECT_EQ(wrong, 0u);
                        const std::size_t tail = t.cols % 64;
                        for (std::size_t r = 0; r < t.rows; ++r)
                            EXPECT_TRUE(tail == 0 ||
                                        (t.row(r).back() >> tail) == 0)
                                << "tail bits set in row " << r;
                    }
                }
            }
        }
    }
}

TEST(BitMatrix, SampleTilesVisitsEveryTileRowMajor)
{
    Rng rng(9);
    BitMatrix m(70, 45);
    m.randomize(rng, 0.4);
    TileConfig tile;
    tile.m = 32;
    tile.k = 16;
    // ceil(70/32) x ceil(45/16) tiles, col0 varying fastest; a cap of
    // 0 (none) or at least the tile count keeps them all.
    const std::vector<std::pair<std::size_t, std::size_t>> expected = {
        {0, 0},  {0, 16},  {0, 32},
        {32, 0}, {32, 16}, {32, 32},
        {64, 0}, {64, 16}, {64, 32}};
    for (const std::size_t max_tiles : {0UL, 9UL, 96UL}) {
        const TileSample sample = sampleTiles(70, 45, tile, max_tiles);
        EXPECT_EQ(sample.origins, expected) << "max_tiles=" << max_tiles;
        EXPECT_EQ(sample.scale, 1.0);
    }

    // Edge tiles are cropped, so the tiles cover every bit once.
    std::size_t bits = 0;
    TileWords t;
    for (const auto& [r0, c0] : sampleTiles(70, 45, tile, 0).origins) {
        extractTile(m, r0, c0, tile.m, tile.k, t);
        bits += popcountWords(t.words.data(), t.words.size());
    }
    EXPECT_EQ(bits, m.popcount());
    extractTile(m, 64, 32, tile.m, tile.k, t);
    EXPECT_EQ(t.rows, 6u);
    EXPECT_EQ(t.cols, 13u);
}

TEST(BitMatrix, SampleTilesStridesAndScales)
{
    // 5 x 2 = 10 tiles, 4 kept: stride 2.5 picks tiles 0, 2, 5 and 7
    // (floor of i * stride) and each stands for 2.5 tiles.
    TileConfig tile;
    tile.m = 4;
    tile.k = 8;
    const TileSample sample = sampleTiles(20, 16, tile, 4);
    const std::vector<std::pair<std::size_t, std::size_t>> expected = {
        {0, 0}, {4, 0}, {8, 8}, {12, 8}};
    EXPECT_EQ(sample.origins, expected);
    EXPECT_EQ(sample.scale, 2.5);

    EXPECT_TRUE(sampleTiles(0, 16, tile, 4).origins.empty());
}

TEST(GemmShape, DenseOps)
{
    const GemmShape shape{6, 4, 3};
    EXPECT_DOUBLE_EQ(shape.denseOps(), 72.0);
}

TEST(DenseMatrix, AccessAndRandomize)
{
    WeightMatrix w(4, 5);
    EXPECT_EQ(w.rows(), 4u);
    EXPECT_EQ(w.cols(), 5u);
    w.at(2, 3) = -7;
    EXPECT_EQ(w.at(2, 3), -7);

    Rng rng(1);
    w.randomizeInt(rng, -127, 127);
    for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c) {
            EXPECT_GE(w.at(r, c), -127);
            EXPECT_LE(w.at(r, c), 127);
        }
}

TEST(DenseMatrix, RowPtrIsContiguous)
{
    WeightMatrix w(3, 4);
    w.at(1, 0) = 10;
    w.at(1, 3) = 13;
    const std::int32_t* row = w.rowPtr(1);
    EXPECT_EQ(row[0], 10);
    EXPECT_EQ(row[3], 13);
}

} // namespace
} // namespace prosperity
