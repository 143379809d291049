/**
 * @file
 * Test helper: a whole BitMatrix as one tile, extracted with
 * extractTile exactly as the PPU model extracts its tiles.
 */

#ifndef PROSPERITY_TESTS_WHOLE_TILE_H
#define PROSPERITY_TESTS_WHOLE_TILE_H

#include "bitmatrix/bit_matrix.h"

namespace prosperity {

inline TileWords
wholeTile(const BitMatrix& m)
{
    TileWords t;
    extractTile(m, 0, 0, m.rows(), m.cols(), t);
    return t;
}

} // namespace prosperity

#endif // PROSPERITY_TESTS_WHOLE_TILE_H
