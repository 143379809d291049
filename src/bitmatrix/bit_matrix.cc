#include "bit_matrix.h"

#include <algorithm>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

namespace prosperity {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_words_((cols + 63) / 64),
      words_(rows * row_words_, 0)
{
}

void
BitMatrix::copyRow(std::size_t dst, std::size_t src)
{
    const std::span<const std::uint64_t> from = row(src);
    std::uint64_t* to = rowData(dst);
    if (to != from.data()) // std::copy may not write over its source
        std::copy(from.begin(), from.end(), to);
}

void
BitMatrix::orRow(std::size_t r, const BitMatrix& src, std::size_t src_row)
{
    PROSPERITY_ASSERT(src.cols_ == cols_, "row width mismatch");
    const std::span<const std::uint64_t> from = src.row(src_row);
    std::uint64_t* to = rowData(r);
    for (std::size_t w = 0; w < row_words_; ++w)
        to[w] |= from[w];
}

void
BitMatrix::randomizeRow(std::size_t r, Rng& rng, double density)
{
    if (row_words_ == 0)
        return;
    std::uint64_t* words = rowData(r);
    rng.nextBernoulliWords(words, row_words_, density);
    words[row_words_ - 1] &= lastWordMask(cols_);
}

void
BitMatrix::randomize(Rng& rng, double density)
{
    for (std::size_t r = 0; r < rows_; ++r)
        randomizeRow(r, rng, density);
}

std::size_t
BitMatrix::popcount() const
{
    return simdOps().popcountWords(words_.data(), words_.size());
}

double
BitMatrix::density() const
{
    const double bits =
        static_cast<double>(rows()) * static_cast<double>(cols());
    return bits == 0.0 ? 0.0 : static_cast<double>(popcount()) / bits;
}

TileSample
sampleTiles(std::size_t rows, std::size_t cols, const TileConfig& tile,
            std::size_t max_tiles)
{
    // Tile f in row-major order (col0 fastest) has origin
    // (f / per_row * m, f % per_row * k), so each kept origin comes
    // from its flat index without listing the tiles in between.
    const std::size_t per_row = (cols + tile.k - 1) / tile.k;
    const std::size_t all = (rows + tile.m - 1) / tile.m * per_row;
    TileSample sample;
    std::size_t kept = all;
    double stride = 1.0;
    if (max_tiles != 0 && all > max_tiles) {
        kept = max_tiles;
        stride = static_cast<double>(all) / static_cast<double>(max_tiles);
        sample.scale = stride;
    }
    sample.origins.reserve(kept);
    for (std::size_t i = 0; i < kept; ++i) {
        const auto f = static_cast<std::size_t>(i * stride);
        sample.origins.emplace_back(f / per_row * tile.m,
                                    f % per_row * tile.k);
    }
    return sample;
}

} // namespace prosperity
