/**
 * @file
 * Tests for the pruner stage of prefix selection (Sec. V-C) as
 * selectPrefixes() implements it: the Fig. 5 walkthrough of the
 * pruning rules, and the properties every selected prefix must have.
 */

#include <gtest/gtest.h>

#include "core/prefix_select.h"
#include "sim/rng.h"
#include "whole_tile.h"

namespace prosperity {
namespace {

constexpr std::int32_t kNone = PrefixSelection::kNoPrefix;

BitMatrix
fig5Matrix()
{
    // Fig. 5 (a): the 6-row tile the paper walks through.
    return BitMatrix::fromStrings({
        "1010", // 0
        "1001", // 1
        "1011", // 2
        "0010", // 3
        "1101", // 4  (paper Fig. 3 uses 1011 here; Fig. 5 uses 1101)
        "1101", // 5
    });
}

/** Residual pattern of row i: the bits its prefix does not cover. */
BitVector
pattern(const BitMatrix& tile, const PrefixSelection& sel, std::size_t i)
{
    if (sel.prefix[i] == kNone)
        return tile.row(i);
    return tile.row(i) ^ tile.row(static_cast<std::size_t>(sel.prefix[i]));
}

// ---- Fig. 5 walkthrough -----------------------------------------------

TEST(Pruning, PaperRow2SelectsRow1)
{
    // Fig. 5 (b): Row 2 (1011) has subset candidates {0, 1, 3}. Rows 0
    // (1010) and 1 (1001) both have 2 ones; the largest-index rule
    // picks Row 1, matching the paper's walkthrough.
    const BitMatrix tile = fig5Matrix();
    const PrefixSelection sel = selectPrefixes(wholeTile(tile));
    EXPECT_EQ(sel.prefix[2], 1);
    EXPECT_LT(sel.popcounts[1], sel.popcounts[2]); // a partial match
    EXPECT_EQ(pattern(tile, sel, 2).toString(), "0010");
}

TEST(Pruning, ExactMatchUsesSmallerIndexAsPrefix)
{
    const BitMatrix tile = fig5Matrix();
    const PrefixSelection sel = selectPrefixes(wholeTile(tile));
    // Row 5 reuses Row 4 entirely (EM), pattern all-zero.
    EXPECT_EQ(sel.prefix[5], 4);
    EXPECT_EQ(sel.popcounts[4], sel.popcounts[5]);
    EXPECT_TRUE(pattern(tile, sel, 5).none());
    // Row 4 must NOT pick Row 5 (larger-index EM is a violation); its
    // best legal prefix is Row 1 (1001, subset with 2 ones).
    EXPECT_EQ(sel.prefix[4], 1);
    EXPECT_EQ(pattern(tile, sel, 4).toString(), "0100");
}

TEST(Pruning, EmChainLinksThroughLargestIndex)
{
    const PrefixSelection sel = selectPrefixes(
        wholeTile(BitMatrix::fromStrings({"1100", "1100", "1100"})));
    EXPECT_EQ(sel.prefix[0], kNone);
    EXPECT_EQ(sel.prefix[1], 0);
    // Row 2 ties between Row 0 and Row 1; largest index wins.
    EXPECT_EQ(sel.prefix[2], 1);
}

TEST(Pruning, ArgmaxPrefersLargestSubset)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1000", // 0: subset of 2, 1 one
        "1100", // 1: subset of 2, 2 ones  <- best
        "1110", // 2
    });
    const PrefixSelection sel = selectPrefixes(wholeTile(tile));
    EXPECT_EQ(sel.prefix[2], 1);
    EXPECT_EQ(pattern(tile, sel, 2).toString(), "0010");
}

TEST(Pruning, SingleSpikeRowsUseExactMatchOnly)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1000",
        "1000", // identical 1-spike row: EM reuse applies
        "0100", // different 1-spike row: no candidate
        "0000", // empty: nothing to reuse
    });
    const PrefixSelection sel = selectPrefixes(wholeTile(tile));
    EXPECT_EQ(sel.prefix[1], 0);
    EXPECT_TRUE(pattern(tile, sel, 1).none());
    EXPECT_EQ(sel.prefix[2], kNone);
    EXPECT_EQ(sel.prefix[3], kNone);
    EXPECT_EQ(pattern(tile, sel, 2).toString(), "0100");
}

// ---- properties -------------------------------------------------------

TEST(Pruning, PatternPlusPrefixReconstructsRow)
{
    Rng rng(12);
    for (int trial = 0; trial < 20; ++trial) {
        BitMatrix tile(48, trial % 2 == 0 ? 16 : 80);
        tile.randomize(rng, 0.35);
        const PrefixSelection sel = selectPrefixes(wholeTile(tile));
        for (std::size_t i = 0; i < tile.rows(); ++i) {
            EXPECT_EQ(sel.popcounts[i], tile.row(i).popcount());
            if (sel.prefix[i] == kNone)
                continue;
            const BitVector& prefix_row =
                tile.row(static_cast<std::size_t>(sel.prefix[i]));
            const BitVector residual = pattern(tile, sel, i);
            // Disjointness: pattern AND prefix == 0.
            EXPECT_TRUE((residual & prefix_row).none());
            // Reconstruction: pattern OR prefix == row.
            EXPECT_EQ(residual | prefix_row, tile.row(i));
        }
    }
}

TEST(Pruning, PrefixRespectsPartialOrdering)
{
    // A prefix has strictly fewer ones, or as many and a smaller index:
    // it issues first in (popcount, index) order.
    Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        BitMatrix tile(64, 16);
        tile.randomize(rng, 0.15 + 0.02 * trial);
        const PrefixSelection sel = selectPrefixes(wholeTile(tile));
        for (std::size_t i = 0; i < tile.rows(); ++i) {
            if (sel.prefix[i] == kNone)
                continue;
            const auto p = static_cast<std::size_t>(sel.prefix[i]);
            const std::size_t no_p = sel.popcounts[p];
            const std::size_t no_i = sel.popcounts[i];
            EXPECT_TRUE(no_p < no_i || (no_p == no_i && p < i))
                << "row " << i << " prefix " << p;
        }
    }
}

TEST(Pruning, ExactMatchIffEqualPopcounts)
{
    Rng rng(14);
    BitMatrix tile(96, 16);
    tile.randomize(rng, 0.2);
    const PrefixSelection sel = selectPrefixes(wholeTile(tile));
    for (std::size_t i = 0; i < tile.rows(); ++i) {
        if (sel.prefix[i] == kNone)
            continue;
        const auto p = static_cast<std::size_t>(sel.prefix[i]);
        EXPECT_EQ(sel.popcounts[p] == sel.popcounts[i],
                  pattern(tile, sel, i).none())
            << "row " << i;
    }
}

} // namespace
} // namespace prosperity
