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
 * Under these rules a row decides its prefix by its value alone: a
 * later copy of a value takes the copy before it (an exact match), and
 * a value's first copy takes the last copy of its prefix value. So the
 * one search is DistinctRows::select, which runs once per distinct row
 * value of a tile, read in place from the layer's BitMatrix (each row
 * one k-bit TCAM word span). Its readers run one workspace per pass:
 * summarizeTile (core/tile_pipeline.h) folds the sums straight from
 * the value list, which analyzeMatrix also reads, and selectPrefixes()
 * expands the list row by row for the functional ProductGemm.
 */

#ifndef PROSPERITY_CORE_PREFIX_SELECT_H
#define PROSPERITY_CORE_PREFIX_SELECT_H

#include <cstdint>
#include <span>
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
 * A tile's distinct non-empty row values, each with its prefix value:
 * the prefix search, run once per value.
 *
 * select() makes three passes. The copy pass reads the rows in place,
 * from the last to the first, through an open-addressing table of row
 * values (linear probing, a power of two of at least 2m slots), so
 * each value is first met at its last copy, which keeps its words, and
 * counted at every other. The signature and the table key are the row
 * itself when k <= 64; wider rows key by a hash and compare their
 * words to confirm a copy. A stable counting sort by popcount then
 * puts the values in (popcount, last copy) order. Last, each value
 * runs lastSubset() over the values of fewer ones: the pruner's
 * argmax. Empty rows neither select nor serve as a prefix (the TCAM's
 * valid bit masks them out).
 *
 * It is a workspace: its buffers keep their capacity from tile to
 * tile, so a pass over a layer's tiles allocates only while its tiles
 * grow.
 */
class DistinctRows
{
  public:
    /** One distinct non-empty row value of the tile. */
    struct Value
    {
        std::uint32_t copies = 0;   ///< rows holding the value
        std::uint32_t popcount = 0; ///< its number of ones (NO)
        std::uint32_t last = 0;     ///< index of its last copy
        /** Position in values() of its prefix value, or kNoPrefix. */
        std::int32_t prefix = PrefixSelection::kNoPrefix;
        /** Hops of its first copy's leaf-to-root prefix-chain walk, a
         *  root counting one; the copy j after the first walks j more. */
        std::uint32_t depth = 1;
    };

    /** Find the distinct values and prefix values of the tile of
     *  `matrix` at (row0, col0), at most m x k bits, cropped. */
    void select(const BitMatrix& matrix, std::size_t row0,
                std::size_t col0, std::size_t m, std::size_t k);

    /** The tile's shape, after cropping. */
    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** The distinct non-empty values in (popcount, last copy) order,
     *  in which every prefix value precedes the values that take it. */
    std::span<const Value> values() const
    {
        return {values_.data(), values_.size()};
    }

    /** values()[t]'s ceil(cols() / 64) words, tail zero. */
    std::span<const std::uint64_t> words(std::size_t t) const
    {
        return {found_words_.data() + ids_[t] * row_words_, row_words_};
    }

    /** Position in values() of the last value of at most `max_ones`
     *  ones inside `words` (as wide as a value), or kNoPrefix: a
     *  backward lastSignatureMatch whose hits wide rows confirm. */
    std::int32_t lastSubset(const std::uint64_t* words,
                            std::size_t max_ones) const;

    /** Rows of the tile without a one. */
    std::size_t emptyRows() const { return empty_rows_; }

    /** Position in values() of row `r`'s value, or kNoPrefix for an
     *  empty row. */
    std::int32_t valueOf(std::size_t r) const
    {
        const std::uint32_t id = row_ids_[r];
        return id == kEmpty ? PrefixSelection::kNoPrefix
                            : static_cast<std::int32_t>(positions_[id]);
    }

  private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    // Values are numbered in the copy pass's order of discovery, which
    // descends in last copy.
    std::vector<std::uint32_t> table_;     ///< copy table: number + 1
    std::vector<std::uint32_t> row_ids_;   ///< each row's number, or kEmpty
    std::vector<std::uint64_t> keys_;      ///< per number: its table key
    std::vector<std::uint64_t> found_words_; ///< per number: its words
    std::vector<Value> found_;             ///< per number
    std::vector<std::uint32_t> positions_; ///< per number: in values_
    /** Counting sort by popcount: bucket_[p] ends as popcount p + 1's
     *  first position, the end of a search of at most p ones. */
    std::vector<std::uint32_t> bucket_;
    std::vector<std::uint64_t> sigs_; ///< per position: signature
    std::vector<std::uint32_t> ids_;  ///< per position: its number
    std::vector<Value> values_;       ///< per position
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t row_words_ = 0; ///< ceil(cols_ / 64)
    std::size_t empty_rows_ = 0;
};

/**
 * Select every row's prefix: the values `distinct` selected, expanded
 * row by row. A row with an earlier copy of its value takes the most
 * recent one (an equal-popcount subset must be identical, so that copy
 * is the argmax of the pruning rules), and a value's first copy takes
 * the last copy of its prefix value. The result equals
 * selectPrefixesNaive() on every tile.
 */
PrefixSelection selectPrefixes(const DistinctRows& distinct);

/**
 * All-pairs reference: every subset candidate of every row, pruned by
 * the three rules above, with the scalar popcount and subset loops.
 * The test oracle and bench baseline for selectPrefixes(); the tests
 * hand it a tile built bit by bit, so it checks the in-place read too.
 */
PrefixSelection selectPrefixesNaive(const BitMatrix& tile);

} // namespace prosperity

#endif // PROSPERITY_CORE_PREFIX_SELECT_H
