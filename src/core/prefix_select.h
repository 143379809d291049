/**
 * @file
 * ProSparsity prefix selection (Secs. V-B, V-C).
 *
 * The detector's TCAM search finds, for every row of a tile, the rows
 * whose spike set is a subset of it, and its popcount units count each
 * row's number of ones (NO). The pruner then keeps at most one of those
 * subset rows as the row's Prefix:
 *
 *  1. an exact-match peer with a larger index is skipped (it issues
 *     later, so its result is not ready — the partial-ordering filter
 *     of Fig. 5 (b));
 *  2. argmax: the candidate with the most ones wins;
 *  3. ties go to the largest row index.
 *
 * The residual pattern the Processor accumulates is row ^ prefix (set
 * difference, since the prefix is a subset). Every prefix has fewer
 * ones than its row, or as many and a smaller index, so issuing rows
 * in (popcount, index) order — the bitonic sorter's output (Sec. V-D) —
 * always computes a prefix before its suffixes.
 *
 * selectPrefixes() is the one routine that models both stages: the
 * timing path (TilePipeline), the density analyses and the functional
 * ProductGemm all read its result.
 */

#ifndef PROSPERITY_CORE_PREFIX_SELECT_H
#define PROSPERITY_CORE_PREFIX_SELECT_H

#include <cstdint>
#include <vector>

#include "bitmatrix/bit_matrix.h"

namespace prosperity {

/** Each row's number of ones and selected prefix within one tile. */
struct PrefixSelection
{
    static constexpr std::int32_t kNoPrefix = -1;

    std::vector<std::size_t> popcounts; ///< NO of each row
    std::vector<std::int32_t> prefix;   ///< prefix row, or kNoPrefix

    std::size_t rows() const { return popcounts.size(); }
};

/**
 * Select every row's prefix. Rows are counting-sorted by popcount; for
 * each query row a vectorized sweep (SimdOps::signatureScanWords) keeps
 * the candidates ordered before it whose one-word occupancy signature
 * passes the subset prefilter, and the survivors are walked from the
 * end. The first survivor that is a true subset — the signature is
 * the row itself when k <= 64, so only wider tiles run the word
 * comparison — is the argmax of the pruning rules. Empty rows neither
 * select nor serve as a prefix (the TCAM's valid bit masks them out).
 * The result equals selectPrefixesNaive() on every tile.
 */
PrefixSelection selectPrefixes(const TileWords& tile);

/**
 * All-pairs reference: every subset candidate of every row, pruned by
 * the three rules above. The test oracle and bench baseline for
 * selectPrefixes(); it reads a BitMatrix, so it checks the tile
 * extraction too.
 */
PrefixSelection selectPrefixesNaive(const BitMatrix& tile);

} // namespace prosperity

#endif // PROSPERITY_CORE_PREFIX_SELECT_H
