#include "tile_pipeline.h"

#include <cmath>
#include <span>

#include "core/prefix_select.h"
#include "obs/trace.h"

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

TileSummary
summarizeTile(const DistinctRows& distinct)
{
    TileSummary summary;
    summary.rows = distinct.rows();
    summary.cols = distinct.cols();
    if (summary.rows == 0 || summary.cols == 0)
        return summary;

    // Closed forms per distinct value of c copies and p ones. Each
    // later copy takes the copy before it, an exact match; the first
    // takes its prefix value u, a partial match leaving p - NO(u)
    // ones, or is a root leaving all p. Copy j walks the first copy's
    // depth plus j hops, and each empty row is a root of one hop.
    const std::span<const DistinctRows::Value> values = distinct.values();
    summary.walk = distinct.emptyRows();
    for (const DistinctRows::Value& value : values) {
        const std::size_t c = value.copies;
        const std::size_t p = value.popcount;
        summary.ones += c * p;
        summary.exact += c - 1;
        summary.walk += c * value.depth + c * (c - 1) / 2;
        if (value.prefix == PrefixSelection::kNoPrefix) {
            summary.pattern_ones += p;
        } else {
            summary.pattern_ones +=
                p - values[static_cast<std::size_t>(value.prefix)].popcount;
            ++summary.partial;
        }
    }
    return summary;
}

TileSummary
summarizeTileNaive(const BitMatrix& tile)
{
    TileSummary summary;
    summary.rows = tile.rows();
    summary.cols = tile.cols();
    if (summary.rows == 0 || summary.cols == 0)
        return summary;

    const PrefixSelection sel = selectPrefixesNaive(tile);
    for (std::size_t i = 0; i < sel.rows(); ++i) {
        std::size_t pattern = sel.popcounts[i];
        summary.ones += pattern;
        if (sel.prefix[i] != PrefixSelection::kNoPrefix) {
            pattern -=
                sel.popcounts[static_cast<std::size_t>(sel.prefix[i])];
            ++(pattern == 0 ? summary.exact : summary.partial);
        }
        summary.pattern_ones += pattern;
        // The row's leaf-to-root walk, followed in full.
        for (std::int32_t node = static_cast<std::int32_t>(i);
             node != PrefixSelection::kNoPrefix;
             node = sel.prefix[static_cast<std::size_t>(node)])
            ++summary.walk;
    }
    return summary;
}

const TileSummarySet&
TileSummaryCache::summaries(const TileConfig& tile,
                            std::size_t max_sampled_tiles)
{
    const std::array<std::size_t, 3> key{tile.m, tile.k,
                                         max_sampled_tiles};
    if (const auto found = sets_.find(key); found != sets_.end())
        return found->second;

    obs::ScopedSpan span("frontend", layer_);
    if (span.active())
        span.setDetail("tile_m=" + std::to_string(tile.m) +
                       " tile_k=" + std::to_string(tile.k) +
                       " max_sampled_tiles=" +
                       std::to_string(max_sampled_tiles));
    const TileSample sample =
        sampleTiles(spikes_.rows(), spikes_.cols(), tile, max_sampled_tiles);
    TileSummarySet set;
    set.scale = sample.scale;
    set.tiles.reserve(sample.origins.size());
    DistinctRows distinct; // one search workspace, reused for every tile
    for (const auto& [r0, c0] : sample.origins) {
        distinct.select(spikes_, r0, c0, tile.m, tile.k);
        set.tiles.push_back(summarizeTile(distinct));
    }
    return sets_.emplace(key, std::move(set)).first->second;
}

TileStats
TilePipeline::cost(const TileSummary& tile) const
{
    TileStats stats;
    stats.rows = tile.rows;
    stats.cols = tile.cols;
    if (stats.rows == 0 || stats.cols == 0)
        return stats;

    const std::size_t fill = 4; // issue/decode/execute/writeback stages
    stats.bit_row_ops = static_cast<double>(tile.ones);

    if (sparsity_ == SparsityMode::kBitSparsity) {
        // No detection: rows issue in natural order, every set bit is
        // one accumulation cycle, and all-zero rows are squeezed out by
        // the issue logic's valid bits.
        stats.accum_row_ops = stats.bit_row_ops;
        stats.compute_cycles =
            fill + static_cast<std::size_t>(
                       std::ceil(stats.bit_row_ops / kIssueEfficiency));
        return stats;
    }

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
        exposed = (tile.walk + 1) / 2;
        stats.table_accesses += static_cast<double>(tile.walk);
    }
    stats.prosparsity_cycles = m + 4 + exposed;

    stats.exact_matches = tile.exact;
    stats.partial_matches = tile.partial;
    stats.prefix_hits = tile.exact + tile.partial;
    stats.prefix_loads = static_cast<double>(stats.prefix_hits);
    stats.accum_row_ops = static_cast<double>(tile.pattern_ones);
    // An exact match has an all-zero pattern but still occupies one
    // issue cycle to copy the prefix result (Sec. VII-F); all-zero
    // rows are squeezed out entirely. Copies go through the banked
    // psum path, so `issue_width` of them retire per cycle
    // (intra-PPU parallelism, Sec. VIII-A).
    stats.floor_rows = static_cast<double>(tile.exact);
    const double work =
        stats.accum_row_ops +
        std::ceil(stats.floor_rows / static_cast<double>(issue_width_));
    stats.compute_cycles =
        fill +
        static_cast<std::size_t>(std::ceil(work / kIssueEfficiency));
    return stats;
}

} // namespace prosperity
