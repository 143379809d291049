/**
 * @file
 * Unit tests for BitMatrix: spike-matrix storage, tile sampling,
 * density. The prefix search's in-place tile reads are tested in
 * test_detector.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"
#include "bitmatrix/word_kernels.h"
#include "sim/rng.h"
#include "tile_helpers.h"

namespace prosperity {
namespace {

/** Bit (r, c) read straight from the row words. */
bool
wordBit(const BitMatrix& m, std::size_t r, std::size_t c)
{
    return (m.row(r)[c / 64] >> (c % 64)) & 1ULL;
}

/** A bit-per-cell model of a matrix, row-major. */
using Model = std::vector<std::vector<bool>>;

/**
 * The words randomizeRow must leave in a cols-bit row drawn from
 * `rng`: one nextBernoulliWords call over ceil(cols / 64) words, then
 * the tail mask.
 */
std::vector<std::uint64_t>
referenceRow(Rng& rng, std::size_t cols, double density)
{
    std::vector<std::uint64_t> words((cols + 63) / 64);
    rng.nextBernoulliWords(words.data(), words.size(), density);
    words.back() &= lastWordMask(cols);
    return words;
}

/** The first `cols` bits of `words`, column 0 first. */
std::vector<bool>
bitsOf(const std::vector<std::uint64_t>& words, std::size_t cols)
{
    std::vector<bool> bits(cols);
    for (std::size_t c = 0; c < cols; ++c)
        bits[c] = (words[c / 64] >> (c % 64)) & 1ULL;
    return bits;
}

/**
 * The layout contract: every row spans rowWords() = ceil(cols / 64)
 * words whose bits past cols() are zero, and row(r) agrees with
 * test(r, c) and with `model` bit for bit.
 */
void
expectLayout(const BitMatrix& m, const Model& model, const char* step)
{
    SCOPED_TRACE(step);
    ASSERT_EQ(m.rows(), model.size());
    ASSERT_EQ(m.rowWords(), (m.cols() + 63) / 64);
    const std::size_t tail = m.cols() % 64;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        ASSERT_EQ(m.row(r).size(), m.rowWords()) << "row " << r;
        if (tail != 0) {
            EXPECT_EQ(m.row(r).back() >> tail, 0u)
                << "tail bits set in row " << r;
        }
        std::size_t wrong = 0;
        for (std::size_t c = 0; c < m.cols(); ++c)
            wrong += wordBit(m, r, c) != m.test(r, c) ||
                     wordBit(m, r, c) != model[r][c];
        EXPECT_EQ(wrong, 0u) << "row " << r;
    }
}

BitMatrix
paperFig1Matrix()
{
    // The 6x4 spike matrix of Fig. 1 (b) / Fig. 2 (a).
    return fromStrings({
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

    // Row 1, "1001", is the spike set {0, 3}.
    std::vector<std::size_t> spikes;
    forEachSetBit(m.row(1).data(), m.rowWords(),
                  [&](std::size_t c) { spikes.push_back(c); });
    EXPECT_EQ(spikes, (std::vector<std::size_t>{0, 3}));

    // Fig. 2 (c): Row 1 (1001) is a proper subset of Row 4 (1101); a
    // row is a subset of itself, and the empty row of every row.
    const auto subset = [](std::span<const std::uint64_t> a,
                           std::span<const std::uint64_t> b) {
        return isSubsetOfWords(a.data(), b.data(), a.size());
    };
    EXPECT_TRUE(subset(m.row(1), m.row(4)));
    EXPECT_FALSE(subset(m.row(4), m.row(1)));
    EXPECT_TRUE(subset(m.row(2), m.row(2)));
    const BitMatrix empty(1, 4);
    EXPECT_TRUE(subset(empty.row(0), m.row(2)));
    EXPECT_FALSE(subset(m.row(2), empty.row(0)));

    // Fig. 5 (b) step 6: Row 2 (1011) XOR its prefix Row 1 (1001) is
    // the pattern 0010, which is Row 3.
    EXPECT_EQ(m.row(2)[0] ^ m.row(1)[0], m.row(3)[0]);

    // Equal content needs equal widths; a zero-width row has no words.
    EXPECT_NE(BitMatrix(1, 8), BitMatrix(1, 9));
    EXPECT_EQ(BitMatrix(1, 0).rowWords(), 0u);
}

TEST(BitMatrix, DensityMatchesPopcount)
{
    const BitMatrix m = paperFig1Matrix();
    EXPECT_DOUBLE_EQ(m.density(), 14.0 / 24.0);
}

TEST(BitMatrix, ContiguousLayoutContract)
{
    // Every mutator keeps the rows' tails zero and the words in step
    // with test(), across word boundaries; randomize and randomizeRow
    // leave exactly the words of one nextBernoulliWords call per row,
    // tail masked.
    for (const std::size_t cols : {1UL, 15UL, 16UL, 17UL, 63UL, 64UL,
                                   65UL, 130UL, 300UL, 513UL, 1000UL}) {
        SCOPED_TRACE(::testing::Message() << "cols=" << cols);
        const std::size_t rows = 6;
        BitMatrix m(rows, cols);
        Model model(rows, std::vector<bool>(cols, false));
        expectLayout(m, model, "fresh");

        Rng rng(cols);
        Rng reference = rng;
        m.randomize(rng, 0.5);
        for (std::size_t r = 0; r < rows; ++r) {
            const std::vector<std::uint64_t> want =
                referenceRow(reference, cols, 0.5);
            EXPECT_TRUE(std::ranges::equal(m.row(r), want)) << "row " << r;
            model[r] = bitsOf(want, cols);
        }
        expectLayout(m, model, "randomize");

        const std::vector<std::uint64_t> want =
            referenceRow(reference, cols, 0.8);
        m.randomizeRow(2, rng, 0.8);
        EXPECT_TRUE(std::ranges::equal(m.row(2), want));
        model[2] = bitsOf(want, cols);
        expectLayout(m, model, "randomizeRow");

        // Bits 63 and 64 sit on either side of a word boundary.
        for (const std::size_t c : {std::size_t{0}, std::size_t{63},
                                    std::size_t{64}, cols / 2, cols - 1}) {
            if (c >= cols)
                continue;
            m.set(0, c, true);
            model[0][c] = true;
        }
        expectLayout(m, model, "set true");
        m.set(0, cols - 1, false);
        model[0][cols - 1] = false;
        m.set(1, 0, false);
        model[1][0] = false;
        if (cols > 64) {
            m.set(0, 63, false);
            model[0][63] = false;
        }
        expectLayout(m, model, "set false");

        m.copyRow(4, 2);
        model[4] = model[2];
        m.copyRow(3, 3);
        expectLayout(m, model, "copyRow");

        BitMatrix other(1, cols);
        other.randomizeRow(0, rng, 0.4);
        m.orRow(3, other, 0);
        for (std::size_t c = 0; c < cols; ++c)
            model[3][c] = model[3][c] || other.test(0, c);
        m.orRow(4, m, 4);
        expectLayout(m, model, "orRow");

        // A full-density fill sets every bit below cols() and none
        // past it.
        m.randomizeRow(5, rng, 1.0);
        model[5].assign(cols, true);
        expectLayout(m, model, "randomizeRow at density 1");
    }
}

TEST(BitMatrix, SampleTilesVisitsEveryTileRowMajor)
{
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

TEST(BitMatrix, SampleTilesMatchesListThenStride)
{
    // sampleTiles computes each kept origin from its flat index; the
    // reference lists every origin first and then strides over the
    // list, as the sampling was first written.
    using Origins = std::vector<std::pair<std::size_t, std::size_t>>;
    const auto reference = [](std::size_t rows, std::size_t cols,
                              const TileConfig& tile,
                              std::size_t max_tiles) {
        TileSample sample;
        for (std::size_t r = 0; r < rows; r += tile.m)
            for (std::size_t c = 0; c < cols; c += tile.k)
                sample.origins.emplace_back(r, c);
        if (max_tiles == 0 || sample.origins.size() <= max_tiles)
            return sample;
        Origins kept;
        const double stride = static_cast<double>(sample.origins.size()) /
                              static_cast<double>(max_tiles);
        for (std::size_t i = 0; i < max_tiles; ++i)
            kept.push_back(
                sample.origins[static_cast<std::size_t>(i * stride)]);
        sample.scale = static_cast<double>(sample.origins.size()) /
                       static_cast<double>(kept.size());
        sample.origins = std::move(kept);
        return sample;
    };
    // (rows, cols, tile m, tile k): edge-cropped on either side or
    // both, exact multiples, a single cropped tile, 1-row tiles, and
    // empty matrices.
    const std::size_t shapes[][4] = {
        {70, 45, 32, 16}, {20, 16, 4, 8},   {257, 130, 256, 16},
        {5, 7, 8, 8},     {300, 576, 1, 8}, {1000, 33, 7, 16},
        {0, 16, 4, 8},    {16, 0, 4, 8}};
    for (const auto& shape : shapes) {
        TileConfig tile;
        tile.m = shape[2];
        tile.k = shape[3];
        // Uncapped, a single tile, strides that are not integers, and
        // caps at or above the tile count.
        for (const std::size_t max_tiles :
             {0UL, 1UL, 3UL, 7UL, 96UL, 9000UL, 1000000UL}) {
            SCOPED_TRACE(::testing::Message()
                         << shape[0] << "x" << shape[1] << " tiles "
                         << tile.m << "x" << tile.k
                         << " max_tiles=" << max_tiles);
            const TileSample want =
                reference(shape[0], shape[1], tile, max_tiles);
            const TileSample got =
                sampleTiles(shape[0], shape[1], tile, max_tiles);
            EXPECT_EQ(got.origins, want.origins);
            EXPECT_EQ(got.scale, want.scale);
        }
    }
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
