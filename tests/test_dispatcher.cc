/**
 * @file
 * Tests for the dispatcher (Sec. V-D) as TilePipeline models it: the
 * overhead-free bitonic sort and the high-overhead traversal ablation.
 * Both issue a legal order; they differ only in exposed cycles and
 * energy. Both fold summarizeTile's sums, which must equal
 * summarizeTileNaive's row-by-row fold on every tile, also through one
 * DistinctRows workspace reused across tiles of changing shape.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "copy_path_tiles.h"
#include "core/prefix_select.h"
#include "core/tile_pipeline.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"
#include "tile_helpers.h"

namespace prosperity {
namespace {

TileStats
tileStats(DispatchMode dispatch, const BitMatrix& tile)
{
    return TilePipeline(SparsityMode::kProductSparsity, dispatch)
        .cost(summaryOf(tile));
}

/** `got` equals `want`, field by field. */
void
expectSummaryEq(const TileSummary& got, const TileSummary& want)
{
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.cols, want.cols);
    EXPECT_EQ(got.ones, want.ones);
    EXPECT_EQ(got.pattern_ones, want.pattern_ones);
    EXPECT_EQ(got.exact, want.exact);
    EXPECT_EQ(got.partial, want.partial);
    EXPECT_EQ(got.walk, want.walk);
}

/**
 * The summary of all of `tile` equals summarizeTileNaive, the oracle's
 * prefixes summed row by row with every chain walked in full; returns
 * the naive fold.
 */
TileSummary
expectSummaryMatchesNaive(const BitMatrix& tile)
{
    const TileSummary want = summarizeTileNaive(tile);
    expectSummaryEq(summaryOf(tile), want);
    return want;
}

TEST(Dispatch, SorterCompareCountMatchesBitonicNetwork)
{
    BitMatrix tile(256, 16);
    Rng rng(3);
    tile.randomize(rng, 0.3);
    const TileStats sorted = tileStats(DispatchMode::kOverheadFree, tile);
    // m/2 * log(m) * (log(m)+1) / 2 = 128 * 8 * 9 / 2 = 4608.
    EXPECT_DOUBLE_EQ(sorted.sorter_compares, 4608.0);
    // The traversal ablation walks the table instead of sorting.
    const TileStats walked = tileStats(DispatchMode::kTreeTraversal, tile);
    EXPECT_DOUBLE_EQ(walked.sorter_compares, 0.0);
}

TEST(Dispatch, TraversalExposesCycles)
{
    // The ablation's point: traversal costs O(m * d) un-hideable cycles
    // while the sorted dispatch exposes none.
    const BitMatrix tile = fromStrings({
        "1100", "1100", "1100", "1100"});
    const TileStats sorted = tileStats(DispatchMode::kOverheadFree, tile);
    const TileStats walked = tileStats(DispatchMode::kTreeTraversal, tile);
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
    // on subset-heavy ones whose chains run deep. So must every other
    // sum of the tile's summary, which all the modes' costs fold.
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
                EXPECT_EQ(tile->rows(), rows);
                EXPECT_EQ(tile->cols(), cols);
                const std::size_t walk =
                    expectSummaryMatchesNaive(*tile).walk;

                const TileStats stats =
                    TilePipeline(SparsityMode::kProductSparsity,
                                 DispatchMode::kTreeTraversal)
                        .cost(summaryOf(*tile));
                EXPECT_DOUBLE_EQ(stats.table_accesses,
                                 2.0 * static_cast<double>(rows) +
                                     static_cast<double>(walk));
                EXPECT_EQ(stats.prosparsity_cycles,
                          rows + 4 + (walk + 1) / 2);
            }
        }
    }
}

TEST(Dispatch, CopyPathTilesSumLikeTheNaiveFold)
{
    // The summary of tiles whose prefixes come from the copy table:
    // far-apart repeats, repeats between empty rows, wide signature
    // twins, and every tile of up to four rows.
    {
        SCOPED_TRACE("signature twins");
        expectSummaryMatchesNaive(copy_path_tiles::signatureTwins());
    }
    {
        SCOPED_TRACE("tall repeats");
        expectSummaryMatchesNaive(copy_path_tiles::tallRepeats());
    }
    {
        SCOPED_TRACE("repeats between empty rows");
        expectSummaryMatchesNaive(copy_path_tiles::repeatsBetweenEmptyRows());
    }
    copy_path_tiles::forEachSmallTile(
        [](const BitMatrix& tile, const std::string& label) {
            SCOPED_TRACE(label);
            expectSummaryMatchesNaive(tile);
        });
}

TEST(Dispatch, CopiesDecideTheSumsLikeTheNaiveFold)
{
    // Each later copy of a value takes the copy before it, so a value
    // of c copies adds c - 1 exact matches and c(c - 1)/2 hops beyond
    // c first-copy walks: identical rows, alternating values, copies
    // around their subsets, and the last-copy tie between two subsets.
    std::map<std::string, std::size_t> walks;
    copy_path_tiles::forEachCopyTile(
        [&](const BitMatrix& tile, const std::string& label) {
            SCOPED_TRACE(label);
            walks[label] = expectSummaryMatchesNaive(tile).walk;
        });
    for (const char* width : {" k=16", " k=130"}) {
        const std::string k = width;
        // 256 copies of one value walk 256 * 257 / 2 hops.
        EXPECT_EQ(walks.at("identical rows" + k), 32896u);
        // P's two copies walk 1 + 2 hops and Q's one copy 1. The
        // value's two copies walk 3 + 4 over P's last copy, or 2 + 3
        // over Q's.
        EXPECT_EQ(walks.at("ties: P last" + k), 11u);
        EXPECT_EQ(walks.at("ties: Q last" + k), 9u);
    }
}

TEST(Dispatch, EdgeShapesSumLikeTheNaiveFold)
{
    // One-word rows up to 64 columns and wider ones past it, one row,
    // one past a power of two, and a tile without a one.
    copy_path_tiles::forEachShapeTile(
        [](const BitMatrix& tile, const std::string& label) {
            SCOPED_TRACE(label);
            expectSummaryMatchesNaive(tile);
        });
    const TileSummary empty = summaryOf(BitMatrix(257, 130));
    EXPECT_EQ(empty.walk, 257u);
    EXPECT_EQ(empty.ones + empty.pattern_ones + empty.exact + empty.partial,
              0u);
}

TEST(Dispatch, OneWorkspaceSummarisesTilesOfChangingShape)
{
    // A TileSummaryCache reuses one DistinctRows across a layer's
    // tiles. Summaries through one workspace, over tiles whose rows
    // and columns grow and shrink, must equal those of a fresh
    // workspace: no buffer may carry a value, a word, a count or a
    // bucket into the next.
    std::vector<BitMatrix> tiles;
    const auto keep = [&](const BitMatrix& tile, const std::string&) {
        tiles.push_back(tile);
    };
    copy_path_tiles::forEachShapeTile(keep);
    copy_path_tiles::forEachCopyTile(keep);
    tiles.push_back(copy_path_tiles::tallRepeats());
    tiles.push_back(BitMatrix{});
    tiles.push_back(copy_path_tiles::signatureTwins());
    DistinctRows distinct;
    for (const bool reversed : {false, true}) {
        for (std::size_t i = 0; i < tiles.size(); ++i) {
            const BitMatrix& tile =
                tiles[reversed ? tiles.size() - 1 - i : i];
            SCOPED_TRACE(::testing::Message()
                         << (reversed ? "reversed " : "forward ") << i
                         << ": " << tile.rows() << "x" << tile.cols());
            distinct.select(tile, 0, 0, tile.rows(), tile.cols());
            expectSummaryEq(summarizeTile(distinct), summaryOf(tile));
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
        for (std::size_t c = 0; c < tile.cols(); ++c)
            tile.set(r, c);
    const TileStats walked = tileStats(DispatchMode::kTreeTraversal, tile);
    EXPECT_DOUBLE_EQ(walked.table_accesses, 512.0 + 32896.0);
    EXPECT_EQ(walked.prosparsity_cycles, 256u + 4u + 16448u);
}

TEST(Dispatch, TraversalModeAddsExposedCycles)
{
    const BitMatrix tile = fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    const TileStats f = tileStats(DispatchMode::kOverheadFree, tile);
    const TileStats s = tileStats(DispatchMode::kTreeTraversal, tile);
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
                .cost(summaryOf(BitMatrix{}));
        EXPECT_EQ(stats.prosparsity_cycles, 0u);
        EXPECT_DOUBLE_EQ(stats.sorter_compares, 0.0);
        EXPECT_DOUBLE_EQ(stats.table_accesses, 0.0);
    }
}

} // namespace
} // namespace prosperity
