/**
 * @file
 * Tests for the dispatcher (Sec. V-D) as TilePipeline models it: the
 * overhead-free bitonic sort and the high-overhead traversal ablation.
 * Both issue a legal order; they differ only in exposed cycles and
 * energy.
 */

#include <gtest/gtest.h>

#include "core/tile_pipeline.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

TileStats
processTile(DispatchMode dispatch, const BitMatrix& tile)
{
    return TilePipeline(SparsityMode::kProductSparsity, dispatch)
        .process(tile);
}

TEST(Dispatch, SorterCompareCountMatchesBitonicNetwork)
{
    BitMatrix tile(256, 16);
    Rng rng(3);
    tile.randomize(rng, 0.3);
    const TileStats sorted = processTile(DispatchMode::kOverheadFree, tile);
    // m/2 * log(m) * (log(m)+1) / 2 = 128 * 8 * 9 / 2 = 4608.
    EXPECT_DOUBLE_EQ(sorted.sorter_compares, 4608.0);
    // The traversal ablation walks the table instead of sorting.
    const TileStats walked = processTile(DispatchMode::kTreeTraversal, tile);
    EXPECT_DOUBLE_EQ(walked.sorter_compares, 0.0);
}

TEST(Dispatch, TraversalExposesCycles)
{
    // The ablation's point: traversal costs O(m * d) un-hideable cycles
    // while the sorted dispatch exposes none.
    const BitMatrix tile = BitMatrix::fromStrings({
        "1100", "1100", "1100", "1100"});
    const TileStats sorted = processTile(DispatchMode::kOverheadFree, tile);
    const TileStats walked = processTile(DispatchMode::kTreeTraversal, tile);
    EXPECT_EQ(sorted.prosparsity_cycles, 4u + 4u);
    // Per-row leaf-to-root walks over the EM chain: 1+2+3+4 = 10 hops
    // over 2 parallel table banks, ceil(10 / 2) = 5 exposed cycles.
    EXPECT_EQ(walked.prosparsity_cycles, 4u + 4u + 5u);
    // Each hop is one table access on top of the write and read.
    EXPECT_DOUBLE_EQ(walked.table_accesses, 8.0 + 10.0);
}

TEST(Dispatch, TraversalModeAddsExposedCycles)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    const TileStats f = processTile(DispatchMode::kOverheadFree, tile);
    const TileStats s = processTile(DispatchMode::kTreeTraversal, tile);
    EXPECT_GT(s.prosparsity_cycles, f.prosparsity_cycles);
    EXPECT_DOUBLE_EQ(s.accum_row_ops, f.accum_row_ops)
        << "dispatch mode must not change the computation";
}

TEST(Dispatch, EmptyTable)
{
    for (const DispatchMode mode :
         {DispatchMode::kOverheadFree, DispatchMode::kTreeTraversal}) {
        const TileStats stats = processTile(mode, BitMatrix(0, 0));
        EXPECT_EQ(stats.prosparsity_cycles, 0u);
        EXPECT_DOUBLE_EQ(stats.sorter_compares, 0.0);
        EXPECT_DOUBLE_EQ(stats.table_accesses, 0.0);
    }
}

} // namespace
} // namespace prosperity
