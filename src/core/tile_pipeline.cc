#include "tile_pipeline.h"

#include <cmath>

#include "core/prefix_select.h"

namespace prosperity {

namespace {

/** Compare-exchange count of an m-input bitonic sorting network. */
double
bitonicCompares(std::size_t m)
{
    if (m <= 1)
        return 0.0;
    const double log_m = std::ceil(std::log2(static_cast<double>(m)));
    return static_cast<double>(m) / 2.0 * log_m * (log_m + 1.0) / 2.0;
}

} // namespace

TileStats
TilePipeline::process(const BitMatrix& tile) const
{
    TileStats stats;
    stats.rows = tile.rows();
    stats.cols = tile.cols();
    if (stats.rows == 0 || stats.cols == 0)
        return stats;

    const std::size_t fill = 4; // issue/decode/execute/writeback stages

    if (sparsity_ == SparsityMode::kBitSparsity) {
        // No detection: rows issue in natural order, every set bit is
        // one accumulation cycle, and all-zero rows are squeezed out by
        // the issue logic's valid bits.
        std::size_t work = 0;
        for (std::size_t r = 0; r < stats.rows; ++r) {
            const std::size_t pops = tile.row(r).popcount();
            stats.bit_row_ops += static_cast<double>(pops);
            work += pops;
        }
        stats.accum_row_ops = stats.bit_row_ops;
        stats.compute_cycles =
            fill + static_cast<std::size_t>(
                       std::ceil(static_cast<double>(work) /
                                 kIssueEfficiency));
        return stats;
    }

    const PrefixSelection sel = selectPrefixes(tile);
    const std::size_t m = stats.rows;

    // ProSparsity phase: the Step 2-6 pipeline issues one row per cycle
    // through five stages, m + 4 cycles (Sec. VI-A); preloading and the
    // bitonic sort run concurrently and never dominate. The TCAM does
    // one broadside m x k search per row.
    std::size_t exposed = 0;
    stats.tcam_bit_ops = static_cast<double>(m) * static_cast<double>(m) *
                         static_cast<double>(stats.cols);
    stats.popcount_ops = static_cast<double>(m);
    stats.pruner_ops = static_cast<double>(m);
    stats.table_accesses = 2.0 * static_cast<double>(m); // write + read
    if (dispatch_ == DispatchMode::kOverheadFree) {
        stats.sorter_compares = bitonicCompares(m);
    } else {
        // One table lookup per hop of each row's leaf-to-root walk; the
        // table is banked two ways, so two walks proceed per cycle.
        std::size_t walk = 0;
        for (std::size_t i = 0; i < m; ++i) {
            std::size_t hops = 1;
            for (std::int32_t node = sel.prefix[i];
                 node != PrefixSelection::kNoPrefix;
                 node = sel.prefix[static_cast<std::size_t>(node)])
                ++hops;
            walk += hops;
        }
        exposed = (walk + 1) / 2;
        stats.table_accesses += static_cast<double>(walk);
    }
    stats.prosparsity_cycles = m + 4 + exposed;

    double adds = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
        const std::size_t pops = sel.popcounts[r];
        std::size_t pattern_pops = pops;
        stats.bit_row_ops += static_cast<double>(pops);
        if (sel.prefix[r] != PrefixSelection::kNoPrefix) {
            pattern_pops -=
                sel.popcounts[static_cast<std::size_t>(sel.prefix[r])];
            ++stats.prefix_hits;
            ++stats.prefix_loads;
            if (pattern_pops == 0)
                ++stats.exact_matches;
            else
                ++stats.partial_matches;
        }
        stats.accum_row_ops += static_cast<double>(pattern_pops);
        // An exact match has an all-zero pattern but still occupies one
        // issue cycle to copy the prefix result (Sec. VII-F); all-zero
        // rows are squeezed out entirely. Copies go through the banked
        // psum path, so `issue_width` of them retire per cycle
        // (intra-PPU parallelism, Sec. VIII-A).
        if (pops > 0) {
            if (pattern_pops == 0)
                stats.floor_rows += 1.0;
            else
                adds += static_cast<double>(pattern_pops);
        }
    }
    const double work =
        adds + std::ceil(stats.floor_rows /
                         static_cast<double>(issue_width_));
    stats.compute_cycles =
        fill +
        static_cast<std::size_t>(std::ceil(work / kIssueEfficiency));
    return stats;
}

} // namespace prosperity
