#include "bit_matrix.h"

#include <algorithm>

#include "sim/logging.h"

namespace prosperity {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : cols_(cols), rows_(rows, BitVector(cols))
{
}

BitMatrix
BitMatrix::fromStrings(const std::vector<std::string>& rows)
{
    if (rows.empty())
        return BitMatrix();
    BitMatrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        PROSPERITY_ASSERT(rows[r].size() == m.cols_,
                          "ragged bit matrix literal");
        m.rows_[r] = BitVector::fromString(rows[r]);
    }
    return m;
}

BitVector&
BitMatrix::row(std::size_t r)
{
    PROSPERITY_ASSERT(r < rows_.size(), "row index out of range");
    return rows_[r];
}

const BitVector&
BitMatrix::row(std::size_t r) const
{
    PROSPERITY_ASSERT(r < rows_.size(), "row index out of range");
    return rows_[r];
}

std::size_t
BitMatrix::popcount() const
{
    std::size_t count = 0;
    for (const auto& r : rows_)
        count += r.popcount();
    return count;
}

double
BitMatrix::density() const
{
    const double bits =
        static_cast<double>(rows()) * static_cast<double>(cols());
    return bits == 0.0 ? 0.0 : static_cast<double>(popcount()) / bits;
}

void
BitMatrix::randomize(Rng& rng, double density)
{
    for (auto& r : rows_)
        r.randomize(rng, density);
}

void
extractTile(const BitMatrix& matrix, std::size_t row0, std::size_t col0,
            std::size_t tile_rows, std::size_t tile_cols, TileWords& out)
{
    PROSPERITY_ASSERT(row0 <= matrix.rows() && col0 <= matrix.cols(),
                      "tile origin out of range");
    out.rows = std::min(matrix.rows() - row0, tile_rows);
    out.cols = std::min(matrix.cols() - col0, tile_cols);
    out.row_words = (out.cols + 63) / 64;
    out.words.resize(out.rows * out.row_words);
    if (out.row_words == 0)
        return;

    // Output word w holds source bits [col0 + 64w, col0 + 64w + 64):
    // source word first + w shifted down by `shift`, merged with the
    // low bits of the next source word when col0 is not word-aligned.
    // The last word is masked to `cols` bits: the source bits past it
    // belong to the tiles to the right.
    const std::size_t first = col0 / 64;
    const std::size_t shift = col0 % 64;
    const std::size_t tail = out.cols % 64;
    const std::uint64_t last_mask = tail == 0 ? ~0ULL : (1ULL << tail) - 1;
    std::uint64_t* dst = out.words.data();
    for (std::size_t r = 0; r < out.rows; ++r) {
        const std::span<const std::uint64_t> src =
            matrix.row(row0 + r).words();
        for (std::size_t w = 0; w < out.row_words; ++w) {
            const std::size_t s = first + w;
            std::uint64_t word = src[s] >> shift;
            if (shift != 0 && s + 1 < src.size())
                word |= src[s + 1] << (64 - shift);
            dst[w] = word;
        }
        dst[out.row_words - 1] &= last_mask;
        dst += out.row_words;
    }
}

TileSample
sampleTiles(std::size_t rows, std::size_t cols, const TileConfig& tile,
            std::size_t max_tiles)
{
    TileSample sample;
    for (std::size_t r = 0; r < rows; r += tile.m)
        for (std::size_t c = 0; c < cols; c += tile.k)
            sample.origins.emplace_back(r, c);
    if (max_tiles == 0 || sample.origins.size() <= max_tiles)
        return sample;

    std::vector<std::pair<std::size_t, std::size_t>> sampled;
    sampled.reserve(max_tiles);
    const double stride = static_cast<double>(sample.origins.size()) /
                          static_cast<double>(max_tiles);
    for (std::size_t i = 0; i < max_tiles; ++i)
        sampled.push_back(
            sample.origins[static_cast<std::size_t>(i * stride)]);
    sample.scale = static_cast<double>(sample.origins.size()) /
                   static_cast<double>(sampled.size());
    sample.origins = std::move(sampled);
    return sample;
}

} // namespace prosperity
