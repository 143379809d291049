/**
 * @file
 * Tests for the ProSparsity forest (Sec. III-D): the trees the prefix
 * pointers of selectPrefixes() form, each row a child of its prefix.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/prefix_select.h"
#include "sim/rng.h"
#include "whole_tile.h"

namespace prosperity {
namespace {

constexpr std::int32_t kNone = PrefixSelection::kNoPrefix;

void
expectPrefixes(const BitMatrix& tile,
               const std::vector<std::int32_t>& expected)
{
    const PrefixSelection sel = selectPrefixes(wholeTile(tile));
    ASSERT_EQ(sel.rows(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(sel.prefix[i], expected[i]) << "row " << i;
}

TEST(Forest, PaperExampleStructure)
{
    // Fig. 3 (b): edges 3 -> 0, 1 -> 2, 1 -> 4 and 4 -> 5; Row 1 has no
    // subset and Row 3 has a single spike, so those two are the roots.
    expectPrefixes(BitMatrix::fromStrings(
                       {"1010", "1001", "1011", "0010", "1101", "1101"}),
                   {3, kNone, 1, kNone, 1, 4});
}

TEST(Forest, DepthOfChain)
{
    // EM chain 0 -> 1 -> 2 -> 3: one tree of depth 4.
    expectPrefixes(BitMatrix::fromStrings({"1100", "1100", "1100", "1100"}),
                   {kNone, 0, 1, 2});
}

TEST(Forest, DisjointRowsAreAllRoots)
{
    expectPrefixes(BitMatrix::fromStrings({"1000", "0100", "0010"}),
                   {kNone, kNone, kNone});
}

TEST(Forest, AlwaysAcyclicOnRandomTiles)
{
    // Every leaf-to-root walk ends at a root within m hops.
    Rng rng(21);
    for (int trial = 0; trial < 20; ++trial) {
        BitMatrix tile(64, 16);
        tile.randomize(rng, 0.1 + 0.03 * trial);
        const PrefixSelection sel = selectPrefixes(wholeTile(tile));
        for (std::size_t i = 0; i < sel.rows(); ++i) {
            std::size_t hops = 0;
            for (std::int32_t node = sel.prefix[i];
                 node != kNone && hops <= sel.rows();
                 node = sel.prefix[static_cast<std::size_t>(node)])
                ++hops;
            EXPECT_LT(hops, sel.rows()) << "row " << i;
        }
    }
}

} // namespace
} // namespace prosperity
