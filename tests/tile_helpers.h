/**
 * @file
 * Test helpers for the front end: a matrix written as row strings, the
 * selection and summary of a whole test matrix as one tile
 * (DistinctRows reads the view at (0, 0) that covers every row and
 * column, through a workspace of its own; a loop over tiles reuses one
 * workspace, as the library's passes do), and a view's tile built bit
 * by bit, the reference for the in-place reads.
 */

#ifndef PROSPERITY_TESTS_TILE_HELPERS_H
#define PROSPERITY_TESTS_TILE_HELPERS_H

#include <algorithm>
#include <string>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "core/prefix_select.h"
#include "core/tile_pipeline.h"
#include "sim/logging.h"

namespace prosperity {

/**
 * A matrix from row strings, e.g. {"1010", "1001"}; all rows must have
 * equal length and hold only '0' and '1'. Character c is column c, so
 * "1001" sets columns 0 and 3, as the paper's figures read.
 */
inline BitMatrix
fromStrings(const std::vector<std::string>& rows)
{
    if (rows.empty())
        return BitMatrix();
    BitMatrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        PROSPERITY_ASSERT(rows[r].size() == m.cols(),
                          "ragged bit matrix literal");
        for (std::size_t c = 0; c < m.cols(); ++c) {
            const char bit = rows[r][c];
            PROSPERITY_ASSERT(bit == '0' || bit == '1',
                              "bit pattern must contain only 0/1");
            if (bit == '1')
                m.set(r, c);
        }
    }
    return m;
}

/** Every row's prefix when all of `tile` is one tile. */
inline PrefixSelection
prefixesOf(const BitMatrix& tile)
{
    DistinctRows distinct;
    distinct.select(tile, 0, 0, tile.rows(), tile.cols());
    return selectPrefixes(distinct);
}

/** The summary of `tile` as one tile. */
inline TileSummary
summaryOf(const BitMatrix& tile)
{
    DistinctRows distinct;
    distinct.select(tile, 0, 0, tile.rows(), tile.cols());
    return summarizeTile(distinct);
}

/**
 * The tile of `matrix` at (r0, c0) with at most m x k bits, cropped at
 * the bottom and right edges, built bit by bit with test() and set().
 */
inline BitMatrix
bitByBitTile(const BitMatrix& matrix, std::size_t r0, std::size_t c0,
             std::size_t m, std::size_t k)
{
    BitMatrix tile(std::min(matrix.rows() - r0, m),
                   std::min(matrix.cols() - c0, k));
    for (std::size_t r = 0; r < tile.rows(); ++r)
        for (std::size_t c = 0; c < tile.cols(); ++c)
            tile.set(r, c, matrix.test(r0 + r, c0 + c));
    return tile;
}

} // namespace prosperity

#endif // PROSPERITY_TESTS_TILE_HELPERS_H
