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

BitMatrix
BitMatrix::tile(std::size_t row0, std::size_t col0, std::size_t tile_rows,
                std::size_t tile_cols) const
{
    PROSPERITY_ASSERT(row0 <= rows() && col0 <= cols(),
                      "tile origin out of range");
    const std::size_t r_end = std::min(rows(), row0 + tile_rows);
    const std::size_t c_end = std::min(cols(), col0 + tile_cols);
    BitMatrix out(r_end - row0, c_end - col0);
    for (std::size_t r = row0; r < r_end; ++r) {
        const BitVector& src = rows_[r];
        BitVector& dst = out.rows_[r - row0];
        for (std::size_t c = src.findNext(col0 == 0 ? std::size_t(-1)
                                                    : col0 - 1);
             c < c_end; c = src.findNext(c)) {
            dst.set(c - col0);
        }
    }
    return out;
}

void
BitMatrix::randomize(Rng& rng, double density)
{
    for (auto& r : rows_)
        r.randomize(rng, density);
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
