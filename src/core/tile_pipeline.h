/**
 * @file
 * Per-tile PPU processing: prefix selection -> summary -> cost.
 *
 * The front end is split in two. summarizeTile() folds the few
 * design-independent sums of TileSummary straight from the list of
 * distinct row values that one tile's prefix search (DistinctRows,
 * core/prefix_select.h) made, reading the tile in place from the
 * layer's spike matrix; the density analysis reads the same fold, and
 * selectPrefixes() expands the list row by row for the functional
 * GeMM. One search per tile. TilePipeline::cost() folds a summary with
 * one design's formulas into the per-tile schedule the pipeline model
 * (ppu.h) consumes, and counts the architectural activity the energy
 * model charges: the ProSparsity phase's cycles (Sec. VI-A), the
 * dispatcher's bitonic sorter or, in the ablation, its prefix-chain
 * walk (Sec. V-D), and the Processor's residual accumulations.
 * Supports the ablation configurations of Fig. 9:
 * bit-sparsity-only processing (no detection, no reuse) and product
 * sparsity with either dispatch mode. Those modes see the same prefix
 * selection over the same tiles, so a TileSummaryCache computes each
 * layer's summaries once for every design that shares its tiling.
 */

#ifndef PROSPERITY_CORE_TILE_PIPELINE_H
#define PROSPERITY_CORE_TILE_PIPELINE_H

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "core/prefix_select.h"

namespace prosperity {

/** Which sparsity the Processor exploits. */
enum class SparsityMode {
    kBitSparsity,     ///< skip zeros only (rows processed as-is)
    kProductSparsity, ///< prefix reuse + residual patterns (the paper)
};

/**
 * How the dispatcher derives the issue order (Sec. V-D). Both modes
 * issue a legal order and compute the same result; they differ only
 * in exposed cycles and energy.
 */
enum class DispatchMode {
    /** Bitonic sort by number of ones, hidden behind detection (the
     *  paper's design). */
    kOverheadFree,
    /** Forest traversal (the Fig. 9 ablation): the O(m) table stores
     *  no suffix lists, so scheduling walks each row's prefix chain
     *  leaf to root, O(m * d) exposed cycles. */
    kTreeTraversal,
};

/** Activity and timing of one spike tile through the PPU. */
struct TileStats
{
    std::size_t rows = 0;
    std::size_t cols = 0;

    /** Cycles of the ProSparsity processing phase (0 in bit mode). */
    std::size_t prosparsity_cycles = 0;

    /**
     * Cycles of the computation phase for ONE n-pass: pipeline fill +
     * sum over issued rows of max(1, popcount(pattern)).
     */
    std::size_t compute_cycles = 0;

    /** Residual accumulations actually issued (row-activations). */
    double accum_row_ops = 0.0;

    /** Rows whose compute cost is the 1-cycle issue floor (EM copies):
     *  the work intra-PPU issue parallelism can compress. */
    double floor_rows = 0.0;

    /** Set bits of the raw tile (bit-sparsity accumulations). */
    double bit_row_ops = 0.0;

    /** Rows that reused a prefix (EM + PM). */
    std::size_t prefix_hits = 0;
    std::size_t exact_matches = 0;
    std::size_t partial_matches = 0;

    // Energy-relevant activity.
    double tcam_bit_ops = 0.0;
    double popcount_ops = 0.0;
    double pruner_ops = 0.0;
    double sorter_compares = 0.0;
    double table_accesses = 0.0;
    double prefix_loads = 0.0; ///< output-buffer row reads for prefixes
};

/**
 * The design-independent result of one tile's prefix selection: every
 * TileStats field of every mode follows from these sums.
 */
struct TileSummary
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t ones = 0;         ///< set bits of the tile
    /** Ones left to accumulate: sum of NO(row) - NO(prefix). */
    std::size_t pattern_ones = 0;
    /** Rows whose prefix has as many ones (all-zero pattern). Each is
     *  a non-empty row, so these are also the 1-cycle floor rows. */
    std::size_t exact = 0;
    std::size_t partial = 0;      ///< rows reusing a smaller prefix
    /** Hops of every row's leaf-to-root prefix-chain walk, a root
     *  counting one (the traversal dispatcher's table lookups). */
    std::size_t walk = 0;
};

/** Fold the sums of the tile `distinct` has selected from its value
 *  list: O(distinct values), no per-row state. */
TileSummary summarizeTile(const DistinctRows& distinct);

/**
 * The naive fold: the sums of summarizeTile, taken row by row in index
 * order over selectPrefixesNaive's prefixes, with every row's chain
 * walked in full. The test oracle and bench baseline for
 * summarizeTile.
 */
TileSummary summarizeTileNaive(const BitMatrix& tile);

/** Summaries of one spike matrix's analyzed tiles, in sampleTiles
 *  order, and how many of the matrix's tiles each stands for. */
struct TileSummarySet
{
    std::vector<TileSummary> tiles;
    double scale = 1.0;
};

/**
 * One layer's tile summaries, shared by every design of a lineup.
 * Keyed by (tile.m, tile.k, max_sampled_tiles): the first design
 * that asks for a key runs the sampled tiles, read in place from the
 * spike matrix, through one reused DistinctRows workspace, so the
 * pass allocates nothing per tile, and later designs with the same
 * tiling reuse the summaries. Each computation is one `frontend`
 * span. Returned references stay valid as keys are added.
 * Single-threaded: a lineup runs on one worker.
 */
class TileSummaryCache
{
  public:
    /** Summaries of `spikes`, which must outlive the cache; `layer`
     *  names the frontend spans. */
    TileSummaryCache(const BitMatrix& spikes, std::string layer)
        : spikes_(spikes), layer_(std::move(layer))
    {
    }

    const BitMatrix& spikes() const { return spikes_; }

    /** The summaries under this tiling, computed on first use. */
    const TileSummarySet& summaries(const TileConfig& tile,
                                    std::size_t max_sampled_tiles);

  private:
    const BitMatrix& spikes_;
    std::string layer_;
    std::map<std::array<std::size_t, 3>, TileSummarySet> sets_;
};

/** Tile-level PPU cost model of one design. */
class TilePipeline
{
  public:
    /**
     * Fraction of compute cycles doing useful accumulation work. The
     * row-wise Processor loses slots to structural hazards — prefix
     * loads from the output buffer, write-back port conflicts, and
     * weight-bank conflicts — captured as a single issue-efficiency
     * derating applied to both sparsity modes.
     */
    static constexpr double kIssueEfficiency = 0.65;

    TilePipeline(SparsityMode sparsity, DispatchMode dispatch,
                 std::size_t issue_width = 1)
        : sparsity_(sparsity), dispatch_(dispatch),
          issue_width_(issue_width == 0 ? 1 : issue_width)
    {
    }

    /** One tile's schedule/activity under this design. */
    TileStats cost(const TileSummary& tile) const;

  private:
    SparsityMode sparsity_;
    DispatchMode dispatch_;
    std::size_t issue_width_;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_TILE_PIPELINE_H
