/**
 * @file
 * Tests for the dispatcher (Sec. V-D) as TilePipeline models it: the
 * overhead-free bitonic sort and the high-overhead traversal ablation.
 * Both issue a legal order; they differ only in exposed cycles and
 * energy.
 */

#include <gtest/gtest.h>

#include <utility>

#include "core/prefix_select.h"
#include "core/tile_pipeline.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"
#include "whole_tile.h"

namespace prosperity {
namespace {

TileStats
processTile(DispatchMode dispatch, const BitMatrix& tile)
{
    return TilePipeline(SparsityMode::kProductSparsity, dispatch)
        .process(wholeTile(tile));
}

/** Every row's leaf-to-root hop count, each chain followed in full. */
std::size_t
naiveChainWalk(const PrefixSelection& sel)
{
    std::size_t walk = 0;
    for (std::size_t i = 0; i < sel.rows(); ++i) {
        std::size_t hops = 1;
        for (std::int32_t node = sel.prefix[i];
             node != PrefixSelection::kNoPrefix;
             node = sel.prefix[static_cast<std::size_t>(node)])
            ++hops;
        walk += hops;
    }
    return walk;
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

TEST(Dispatch, TraversalWalkEqualsPerRowChainWalks)
{
    // The traversal charges 2m table accesses plus one per hop of each
    // row's leaf-to-root walk. The pipeline's walk total must equal
    // the per-row walks over the oracle's prefixes, on i.i.d. tiles and
    // on subset-heavy ones whose chains run deep.
    ActivationProfile clustered;
    clustered.cluster_fraction = 0.9;
    clustered.bank_size = 4;
    clustered.subset_drop_prob = 0.3;
    clustered.temporal_repeat = 0.5;
    Rng rng(61);
    std::size_t trial = 0;
    for (const double density : {0.05, 0.2, 0.5}) {
        for (const auto& [rows, cols] :
             {std::pair<std::size_t, std::size_t>{256, 16},
              {100, 48}, {31, 7}, {256, 130}}) {
            BitMatrix iid(rows, cols);
            iid.randomize(rng, density);
            clustered.bit_density = density;
            const BitMatrix chained =
                SpikeGenerator(clustered, 19).generate(rows, cols, 4,
                                                       trial++);
            const BitMatrix* const tiles[] = {&iid, &chained};
            for (const BitMatrix* tile : tiles) {
                SCOPED_TRACE(::testing::Message()
                             << rows << "x" << cols << " d=" << density
                             << (tile == &chained ? " clustered" : ""));
                const std::size_t walk =
                    naiveChainWalk(selectPrefixesNaive(*tile));
                const TileStats stats =
                    processTile(DispatchMode::kTreeTraversal, *tile);
                EXPECT_DOUBLE_EQ(stats.table_accesses,
                                 2.0 * static_cast<double>(rows) +
                                     static_cast<double>(walk));
                EXPECT_EQ(stats.prosparsity_cycles,
                          rows + 4 + (walk + 1) / 2);
            }
        }
    }
}

TEST(Dispatch, AllOnesTileWalksOneFullChain)
{
    // 256 identical rows form one exact-match chain, each row's prefix
    // the row before it, so row i walks i + 1 hops: 256 * 257 / 2 =
    // 32,896 hops, on top of the 512 table writes and reads.
    BitMatrix tile(256, 16);
    for (std::size_t r = 0; r < tile.rows(); ++r)
        tile.row(r).setWord(0, ~0ULL);
    const TileStats walked = processTile(DispatchMode::kTreeTraversal, tile);
    EXPECT_DOUBLE_EQ(walked.table_accesses, 512.0 + 32896.0);
    EXPECT_EQ(walked.prosparsity_cycles, 256u + 4u + 16448u);
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
        const TileStats stats =
            TilePipeline(SparsityMode::kProductSparsity, mode)
                .process(TileWords{});
        EXPECT_EQ(stats.prosparsity_cycles, 0u);
        EXPECT_DOUBLE_EQ(stats.sorter_compares, 0.0);
        EXPECT_DOUBLE_EQ(stats.table_accesses, 0.0);
    }
}

} // namespace
} // namespace prosperity
