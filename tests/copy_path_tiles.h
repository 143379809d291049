/**
 * @file
 * Tiles that drive selectPrefixes' copy table and its search over the
 * distinct rows: rows repeated near and far, repeats between empty
 * rows, wide rows that share a popcount and a signature without being
 * copies, and every tile of one to four rows over three columns.
 * test_detector.cc checks the selection on them against
 * selectPrefixesNaive, and test_dispatcher.cc checks summarizeTile
 * against the oracle's fold.
 */

#ifndef PROSPERITY_TESTS_COPY_PATH_TILES_H
#define PROSPERITY_TESTS_COPY_PATH_TILES_H

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "sim/rng.h"

namespace prosperity::copy_path_tiles {

/**
 * Eight k = 128 rows. {0, 64}, {1, 65} and {2, 66} have one one in
 * each word, so all three have signature 0b11 and popcount 2: they are
 * signature twins, not copies. Rows 2, 4 and 6 are true copies, row 3
 * is empty, and row 5 = {0, 1, 64, 65} contains the first two values;
 * its prefix is row 6, the last copy of {0, 64}, which comes after it.
 */
inline BitMatrix
signatureTwins()
{
    const std::vector<std::vector<std::size_t>> rows = {
        {0, 64}, {1, 65}, {0, 64}, {}, {1, 65}, {0, 1, 64, 65}, {0, 64},
        {2, 66}};
    BitMatrix tile(rows.size(), 128);
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (const std::size_t c : rows[r])
            tile.set(r, c);
    return tile;
}

/**
 * 2000 x 16: row r copies value r % 500 of 500 random 16-bit values,
 * so each value repeats four times, 500 rows apart, and the 4096-slot
 * table holds 500 keys, enough for collisions and probe runs.
 */
inline BitMatrix
tallRepeats()
{
    Rng rng(41);
    BitMatrix values(500, 16);
    values.randomize(rng, 0.5);
    BitMatrix tile(2000, 16);
    for (std::size_t r = 0; r < tile.rows(); ++r)
        tile.orRow(r, values, r % values.rows());
    return tile;
}

/**
 * 240 x 16: every third row (r % 3 == 1) is empty, and the others
 * cycle through 12 random values, (r * 5) % 12, so copies of one value
 * sit between empty rows and copies of the others.
 */
inline BitMatrix
repeatsBetweenEmptyRows()
{
    Rng rng(29);
    BitMatrix values(12, 16);
    values.randomize(rng, 0.3);
    BitMatrix tile(240, 16);
    for (std::size_t r = 0; r < tile.rows(); ++r)
        if (r % 3 != 1)
            tile.orRow(r, values, (r * 5) % values.rows());
    return tile;
}

/**
 * Call `fn(tile, label)` on every tile of one to four rows whose rows
 * are any of the eight subsets of three columns: once with the columns
 * at {0, 1, 2} of a 3-column tile (one-word rows) and once at
 * {0, 64, 65} of a 66-column tile, where {64} and {65} are signature
 * twins. That covers every pattern of repeats, empty rows and subsets
 * a tile this small can hold.
 */
template <typename Fn>
void
forEachSmallTile(Fn&& fn)
{
    constexpr std::size_t kValues = 8;
    const std::array<std::pair<std::size_t, std::array<std::size_t, 3>>, 2>
        layouts = {{{3, {0, 1, 2}}, {66, {0, 64, 65}}}};
    for (const auto& [cols, columns] : layouts) {
        std::size_t tiles = 1;
        for (std::size_t rows = 1; rows <= 4; ++rows) {
            tiles *= kValues;
            for (std::size_t code = 0; code < tiles; ++code) {
                BitMatrix tile(rows, cols);
                std::size_t digits = code;
                for (std::size_t r = 0; r < rows; ++r, digits /= kValues)
                    for (std::size_t b = 0; b < columns.size(); ++b)
                        if (((digits % kValues) >> b) & 1)
                            tile.set(r, columns[b]);
                fn(tile, std::to_string(rows) + "x" + std::to_string(cols) +
                             " code " + std::to_string(code));
            }
        }
    }
}

} // namespace prosperity::copy_path_tiles

#endif // PROSPERITY_TESTS_COPY_PATH_TILES_H
