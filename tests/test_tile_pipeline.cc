/**
 * @file
 * Tests for the per-tile PPU pipeline front end and its cost model.
 */

#include <gtest/gtest.h>

#include "core/tile_pipeline.h"
#include "sim/rng.h"
#include "whole_tile.h"

namespace prosperity {
namespace {

TileWords
paperTile()
{
    return wholeTile(BitMatrix::fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"}));
}

TEST(TilePipeline, BitSparsityCountsRawSpikes)
{
    const TilePipeline pipeline(SparsityMode::kBitSparsity,
                                DispatchMode::kOverheadFree);
    const TileStats stats = pipeline.process(paperTile());
    EXPECT_DOUBLE_EQ(stats.bit_row_ops, 14.0); // Fig. 1: 14 bit ops
    EXPECT_DOUBLE_EQ(stats.accum_row_ops, 14.0);
    EXPECT_EQ(stats.prosparsity_cycles, 0u);
    EXPECT_EQ(stats.prefix_hits, 0u);
    // 4 fill + ceil(14 spike-adds / 0.65 issue efficiency) = 4 + 22.
    EXPECT_EQ(stats.compute_cycles, 26u);
}

TEST(TilePipeline, ProductSparsityMatchesFig1OpCount)
{
    // Fig. 1 (d): ProSparsity reduces the toy example to 6 OPs.
    const TilePipeline pipeline(SparsityMode::kProductSparsity,
                                DispatchMode::kOverheadFree);
    const TileStats stats = pipeline.process(paperTile());
    EXPECT_DOUBLE_EQ(stats.accum_row_ops, 6.0);
    EXPECT_DOUBLE_EQ(stats.bit_row_ops, 14.0);
    EXPECT_EQ(stats.exact_matches, 1u);   // Row 5 == Row 4
    EXPECT_GE(stats.partial_matches, 2u); // Rows 2 and 4 reuse subsets
}

TEST(TilePipeline, ProsparsityPhaseCycles)
{
    const TilePipeline pipeline(SparsityMode::kProductSparsity,
                                DispatchMode::kOverheadFree);
    const TileStats stats = pipeline.process(paperTile());
    EXPECT_EQ(stats.prosparsity_cycles, 6u + 4u); // m + 4
    EXPECT_DOUBLE_EQ(stats.tcam_bit_ops, 6.0 * 6.0 * 4.0);

    // A one-row tile still pays the five-stage pipeline.
    const TileStats one =
        pipeline.process(wholeTile(BitMatrix::fromStrings({"0110"})));
    EXPECT_EQ(one.prosparsity_cycles, 5u);
}

TEST(TilePipeline, PhaseCostsAtPaperTileSize)
{
    // Sec. VI-A: m + 4 cycles for the five-stage one-row-per-cycle
    // pipeline; Sec. VII-G: m^2 * k TCAM bit ops per tile; one popcount
    // and one pruner step per row; one table write and read per row.
    BitMatrix tile(256, 16);
    Rng rng(3);
    tile.randomize(rng, 0.3);
    const TileStats stats =
        TilePipeline(SparsityMode::kProductSparsity,
                     DispatchMode::kOverheadFree)
            .process(wholeTile(tile));
    EXPECT_EQ(stats.prosparsity_cycles, 260u);
    EXPECT_DOUBLE_EQ(stats.tcam_bit_ops, 256.0 * 256.0 * 16.0);
    EXPECT_DOUBLE_EQ(stats.popcount_ops, 256.0);
    EXPECT_DOUBLE_EQ(stats.pruner_ops, 256.0);
    EXPECT_DOUBLE_EQ(stats.table_accesses, 512.0);
}

TEST(TilePipeline, EmRowsStillCostOneCycle)
{
    // Sec. VII-F: EM rows have 100% sparsity but take one cycle each.
    const BitMatrix tile = BitMatrix::fromStrings({
        "1111", "1111", "1111", "1111"});
    const TilePipeline pipeline(SparsityMode::kProductSparsity,
                                DispatchMode::kOverheadFree);
    const TileStats stats = pipeline.process(wholeTile(tile));
    EXPECT_DOUBLE_EQ(stats.accum_row_ops, 4.0); // row 0 pays 4 adds
    EXPECT_EQ(stats.exact_matches, 3u);
    // 4 fill + ceil((4 row-0 adds + 3 EM copies) / 0.65) = 4 + 11.
    EXPECT_EQ(stats.compute_cycles, 15u);
}

TEST(TilePipeline, ProductOpsNeverExceedBitOps)
{
    Rng rng(77);
    const TilePipeline pipeline(SparsityMode::kProductSparsity,
                                DispatchMode::kOverheadFree);
    for (int trial = 0; trial < 20; ++trial) {
        BitMatrix tile(128, 16);
        tile.randomize(rng, 0.05 + 0.04 * trial);
        const TileStats stats = pipeline.process(wholeTile(tile));
        EXPECT_LE(stats.accum_row_ops, stats.bit_row_ops);
    }
}

TEST(TilePipeline, EmptyTile)
{
    const TilePipeline pipeline(SparsityMode::kProductSparsity,
                                DispatchMode::kOverheadFree);
    const TileStats stats = pipeline.process(TileWords{});
    EXPECT_EQ(stats.compute_cycles, 0u);
    EXPECT_EQ(stats.prosparsity_cycles, 0u);
}

TEST(TilePipeline, AllZeroRowsAreSqueezedOut)
{
    const BitMatrix tile(8, 16);
    const TilePipeline pipeline(SparsityMode::kProductSparsity,
                                DispatchMode::kOverheadFree);
    const TileStats stats = pipeline.process(wholeTile(tile));
    EXPECT_DOUBLE_EQ(stats.accum_row_ops, 0.0);
    EXPECT_EQ(stats.compute_cycles, 4u); // pipeline fill only
}

} // namespace
} // namespace prosperity
