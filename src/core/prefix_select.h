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
 * A row that repeats an earlier one reuses that copy's result whole
 * (an exact match), so selectPrefixes() searches candidates only for
 * the first copy of each distinct row value.
 *
 * selectPrefixes() is the one routine that models both stages: the
 * timing path (summarizeTile), the density analyses and the functional
 * ProductGemm all read its result. A tile is a BitMatrix (extractTile
 * refills one per tile), so each row is one k-bit TCAM word span.
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
    /** The non-empty rows in (popcount, index) order: the sorter's
     *  issue order, in which every prefix precedes its rows. */
    std::vector<std::uint32_t> order;

    std::size_t rows() const { return popcounts.size(); }
};

/**
 * Select every row's prefix, searching once per distinct row value.
 * A row equal to an earlier row takes the most recent such copy, found
 * through a hash table of row values: an equal-popcount subset must be
 * identical, so that copy is the argmax of the pruning rules. The
 * first copy of each value searches only the distinct values of lower
 * popcount, each represented by its last copy (the largest index, so
 * it beats the value's other copies), in (popcount, last index) order:
 * backward from its popcount bucket (lastSignatureMatch) for the last
 * one whose one-word occupancy signature passes the subset prefilter.
 * The first hit that is a true subset is the argmax, so the search
 * stops there. The signature and the table key are the row itself
 * when k <= 64; wider rows compare their words to confirm a copy and
 * a subset, and resume the search below a false hit. Empty rows
 * neither select nor serve as a prefix (the TCAM's valid bit masks
 * them out). The result equals selectPrefixesNaive() on every tile.
 */
PrefixSelection selectPrefixes(const BitMatrix& tile);

/**
 * All-pairs reference: every subset candidate of every row, pruned by
 * the three rules above, with the scalar popcount and subset loops.
 * The test oracle and bench baseline for selectPrefixes(); the tests
 * hand it the original matrix and selectPrefixes() its extractTile
 * copy, so the oracle checks the extraction too.
 */
PrefixSelection selectPrefixesNaive(const BitMatrix& tile);

} // namespace prosperity

#endif // PROSPERITY_CORE_PREFIX_SELECT_H
