/**
 * @file
 * Per-tile PPU processing: prefix selection -> issue -> cost.
 *
 * Turns one tile's prefix selection (core/prefix_select.h) into the
 * per-tile schedule the pipeline model (ppu.h) consumes, and counts the
 * architectural activity the energy model charges: the ProSparsity
 * phase's cycles (Sec. VI-A), the dispatcher's bitonic sorter or, in
 * the ablation, its prefix-chain walk (Sec. V-D), and the Processor's
 * residual accumulations. Supports the ablation configurations of
 * Fig. 9: bit-sparsity-only processing (no detection, no reuse) and
 * product sparsity with either dispatch mode.
 */

#ifndef PROSPERITY_CORE_TILE_PIPELINE_H
#define PROSPERITY_CORE_TILE_PIPELINE_H

#include <cstddef>

#include "bitmatrix/bit_matrix.h"

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

/** Tile-level PPU front end. */
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

    SparsityMode sparsityMode() const { return sparsity_; }

    /** Process one cropped tile and return its schedule/activity. */
    TileStats process(const TileWords& tile) const;

  private:
    SparsityMode sparsity_;
    DispatchMode dispatch_;
    std::size_t issue_width_;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_TILE_PIPELINE_H
