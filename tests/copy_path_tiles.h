/**
 * @file
 * Tiles that drive the copy table of DistinctRows::select and its
 * search over the distinct row values: rows repeated near and far,
 * repeats between empty rows, wide rows that share a popcount and a
 * signature without being copies, every tile of one to four rows over
 * three columns, tiles whose copies decide the summary's sums, and
 * generated tiles of edge shapes. test_detector.cc checks the
 * selection on them against selectPrefixesNaive, and
 * test_dispatcher.cc checks summarizeTile against summarizeTileNaive.
 */

#ifndef PROSPERITY_TESTS_COPY_PATH_TILES_H
#define PROSPERITY_TESTS_COPY_PATH_TILES_H

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "gen/spike_generator.h"
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

/** A `cols`-wide tile whose row r sets the columns rows[r]. */
inline BitMatrix
tileOf(std::size_t cols, const std::vector<std::vector<std::size_t>>& rows)
{
    BitMatrix tile(rows.size(), cols);
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (const std::size_t c : rows[r])
            tile.set(r, c);
    return tile;
}

/**
 * Call `fn(tile, label)` on tiles whose copies decide the summary's
 * sums, each at 16 columns (one-word rows) and at 130 (three words,
 * the subsets signature twins): every row identical; two values
 * alternating, a value and its subset; a value with copies before and
 * after its subsets; and `ties` tiles, where a value's two subsets of
 * equal popcount are P (two copies) and Q (one). In "ties: P last"
 * P's last copy comes after Q's, so the value takes P and its copies
 * walk one hop further than in "ties: Q last", where it takes Q. P's
 * first copy comes before Q's in both, so only the last copy breaks
 * the tie right.
 */
template <typename Fn>
void
forEachCopyTile(Fn&& fn)
{
    const std::array<std::pair<std::size_t, std::array<std::size_t, 4>>, 2>
        layouts = {{{16, {0, 1, 2, 3}}, {130, {0, 64, 1, 65}}}};
    for (const auto& [cols, c] : layouts) {
        const std::vector<std::size_t> p = {c[0], c[1]};
        const std::vector<std::size_t> q = {c[2], c[3]};
        const std::vector<std::size_t> v = {c[0], c[1], c[2], c[3]};
        const std::vector<std::size_t> pv = {c[0], c[1], c[2]};
        const std::string width = " k=" + std::to_string(cols);

        fn(tileOf(cols, std::vector<std::vector<std::size_t>>(256, v)),
           "identical rows" + width);
        std::vector<std::vector<std::size_t>> alternating;
        for (std::size_t r = 0; r < 255; ++r)
            alternating.push_back(r % 2 == 0 ? v : p);
        fn(tileOf(cols, alternating), "alternating" + width);
        fn(tileOf(cols, {v, p, v, pv, {}, v, q, v}),
           "copies around subsets" + width);
        fn(tileOf(cols, {p, q, p, v, v}), "ties: P last" + width);
        fn(tileOf(cols, {p, p, q, v, v}), "ties: Q last" + width);
        fn(tileOf(cols, {v, p, q, v, p}), "ties: P last, value first" +
                                              width);
    }
}

/**
 * Call `fn(tile, label)` on clustered generated tiles, rich in repeats
 * and subsets, at k = 1, 63, 64, 65 and 130 and m = 1, 255 and 257
 * (one word a row up to 64 columns, more beyond), and on an all-empty
 * 257 x 130 tile.
 */
template <typename Fn>
void
forEachShapeTile(Fn&& fn)
{
    ActivationProfile clustered;
    clustered.bit_density = 0.2;
    clustered.cluster_fraction = 0.9;
    clustered.bank_size = 4;
    clustered.subset_drop_prob = 0.3;
    clustered.temporal_repeat = 0.5;
    const SpikeGenerator gen(clustered, 23);
    std::size_t layer = 0;
    for (const std::size_t cols : {1, 63, 64, 65, 130})
        for (const std::size_t rows : {1, 255, 257})
            fn(gen.generate(rows, cols, 4, layer++),
               std::to_string(rows) + "x" + std::to_string(cols));
    fn(BitMatrix(257, 130), "all empty 257x130");
}

} // namespace prosperity::copy_path_tiles

#endif // PROSPERITY_TESTS_COPY_PATH_TILES_H
