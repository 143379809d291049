/**
 * @file
 * Test helpers for the front end: the selection and summary of a whole
 * test matrix as one tile (DistinctRows reads the view at (0, 0) that
 * covers every row and column, through a workspace of its own; a loop
 * over tiles reuses one workspace, as the library's passes do), and a
 * view's tile built bit by bit, the reference for the in-place reads.
 */

#ifndef PROSPERITY_TESTS_TILE_HELPERS_H
#define PROSPERITY_TESTS_TILE_HELPERS_H

#include <algorithm>

#include "bitmatrix/bit_matrix.h"
#include "core/prefix_select.h"
#include "core/tile_pipeline.h"

namespace prosperity {

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
