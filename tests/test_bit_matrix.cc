/**
 * @file
 * Unit tests for BitMatrix: spike-matrix storage, tiling, density.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

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
    const BitMatrix t = m.tile(1, 1, 3, 2);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    // Rows 1..3, cols 1..2: "00", "01", "01".
    EXPECT_EQ(t.row(0).toString(), "00");
    EXPECT_EQ(t.row(1).toString(), "01");
    EXPECT_EQ(t.row(2).toString(), "01");
}

TEST(BitMatrix, TileCropsAtEdges)
{
    const BitMatrix m = paperFig1Matrix();
    const BitMatrix t = m.tile(4, 2, 256, 16);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t.row(0).toString(), "01");
    EXPECT_EQ(t.row(1).toString(), "01");
}

TEST(BitMatrix, FullTileIsIdentity)
{
    const BitMatrix m = paperFig1Matrix();
    EXPECT_EQ(m.tile(0, 0, 6, 4), m);
    EXPECT_EQ(m.tile(0, 0, 100, 100), m);
}

TEST(BitMatrix, TilePreservesBitsAcrossWordBoundaries)
{
    Rng rng(3);
    BitMatrix m(40, 300);
    m.randomize(rng, 0.3);
    const BitMatrix t = m.tile(10, 60, 20, 70);
    for (std::size_t r = 0; r < t.rows(); ++r)
        for (std::size_t c = 0; c < t.cols(); ++c)
            EXPECT_EQ(t.test(r, c), m.test(10 + r, 60 + c));
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
    for (const auto& [r0, c0] : sampleTiles(70, 45, tile, 0).origins)
        bits += m.tile(r0, c0, tile.m, tile.k).popcount();
    EXPECT_EQ(bits, m.popcount());
    const BitMatrix corner = m.tile(64, 32, tile.m, tile.k);
    EXPECT_EQ(corner.rows(), 6u);
    EXPECT_EQ(corner.cols(), 13u);
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
