/**
 * @file
 * Tests for the sparsity analytics behind Tables I/II/V and Fig. 11.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/density.h"
#include "bitmatrix/word_kernels.h"
#include "core/prefix_select.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"
#include "tile_helpers.h"

namespace prosperity {
namespace {

/** All nine report fields, for exact comparison. */
std::vector<double>
fields(const DensityReport& r)
{
    return {r.bits_total,       r.bits_set,        r.pattern_bits_one,
            r.pattern_bits_two, r.rows,            r.rows_one_prefix,
            r.rows_two_prefix,  r.exact_matches,   r.partial_matches};
}

/**
 * One tile's report row by row over the oracle's prefixes: each row
 * with a prefix and at least two residual ones searches every row of
 * the tile for the one with the most ones (at least two) inside its
 * residual row ^ prefix.
 */
DensityReport
rowByRowReport(const BitMatrix& tile)
{
    const PrefixSelection sel = selectPrefixesNaive(tile);
    const std::size_t nwords = tile.rowWords();
    DensityReport report;
    report.rows = static_cast<double>(tile.rows());
    report.bits_total = static_cast<double>(tile.rows()) *
                        static_cast<double>(tile.cols());
    std::vector<std::uint64_t> residual(nwords);
    for (std::size_t i = 0; i < tile.rows(); ++i) {
        const std::size_t ones = sel.popcounts[i];
        std::size_t left = ones;
        std::size_t second = 0;
        if (sel.prefix[i] != PrefixSelection::kNoPrefix) {
            const auto p = static_cast<std::size_t>(sel.prefix[i]);
            left -= sel.popcounts[p];
            report.rows_one_prefix += 1.0;
            ++(left == 0 ? report.exact_matches : report.partial_matches);
            for (std::size_t w = 0; w < nwords; ++w)
                residual[w] = tile.row(i)[w] ^ tile.row(p)[w];
            for (std::size_t j = 0; left >= 2 && j < tile.rows(); ++j)
                if (sel.popcounts[j] >= 2 && sel.popcounts[j] <= left &&
                    sel.popcounts[j] > second &&
                    isSubsetOfWords(tile.row(j).data(), residual.data(),
                                    nwords))
                    second = sel.popcounts[j];
        }
        report.bits_set += static_cast<double>(ones);
        report.pattern_bits_one += static_cast<double>(left);
        report.pattern_bits_two += static_cast<double>(left - second);
        report.rows_two_prefix += second > 0 ? 1.0 : 0.0;
    }
    return report;
}

TEST(Density, PaperToyExample)
{
    const BitMatrix spikes = fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    DensityOptions opt;
    opt.max_sampled_tiles = 0;
    const DensityReport r = analyzeMatrix(spikes, opt);
    EXPECT_DOUBLE_EQ(r.bitDensity(), 14.0 / 24.0);
    EXPECT_DOUBLE_EQ(r.productDensity(), 6.0 / 24.0);
    EXPECT_NEAR(r.reductionVsBit(), 14.0 / 6.0, 1e-9);
}

TEST(Density, ProductNeverAboveBit)
{
    Rng rng(2);
    for (int trial = 0; trial < 15; ++trial) {
        BitMatrix spikes(256, 32);
        spikes.randomize(rng, 0.05 + 0.06 * trial);
        DensityOptions opt;
        opt.max_sampled_tiles = 0;
        const DensityReport r = analyzeMatrix(spikes, opt);
        EXPECT_LE(r.productDensity(), r.bitDensity() + 1e-12);
    }
}

TEST(Density, TwoPrefixNeverWorseThanOne)
{
    Rng rng(4);
    for (int trial = 0; trial < 10; ++trial) {
        BitMatrix spikes(256, 16);
        spikes.randomize(rng, 0.3);
        DensityOptions opt;
        opt.two_prefix = true;
        opt.max_sampled_tiles = 0;
        const DensityReport r = analyzeMatrix(spikes, opt);
        EXPECT_LE(r.productDensityTwoPrefix(), r.productDensity() + 1e-12);
        EXPECT_LE(r.twoPrefixRatio(), r.onePrefixRatio() + 1e-12);
    }
}

TEST(Density, TwoPrefixFindsDisjointReuse)
{
    // Row 2 = Row 0 (1100...) U Row 1 (0011...): with two prefixes its
    // residual is empty; with one prefix half remains.
    const BitMatrix spikes = fromStrings({
        "11000000",
        "00110000",
        "11110000",
    });
    DensityOptions opt;
    opt.two_prefix = true;
    opt.max_sampled_tiles = 0;
    const DensityReport r = analyzeMatrix(spikes, opt);
    EXPECT_DOUBLE_EQ(r.pattern_bits_one, 2.0 + 2.0 + 2.0);
    EXPECT_DOUBLE_EQ(r.pattern_bits_two, 2.0 + 2.0 + 0.0);
    EXPECT_DOUBLE_EQ(r.rows_two_prefix, 1.0);
}

TEST(Density, TwoPrefixMatchesTheRowByRowSearch)
{
    // analyzeMatrix searches a second prefix once per distinct value,
    // through the prefix search's own backward search: at one-word,
    // straddling two-word and three-word rows it must sum what every
    // row's search over every row of its tile sums. Four 16-column
    // blocks, 80 columns apart, each hold three disjoint atoms of two
    // to five adjacent columns, and each row is the union of one to
    // three atoms of one block: a union takes its largest atom, or a
    // union of two, as its prefix, and the atom left over as its
    // second prefix.
    Rng rng(31);
    std::vector<std::size_t> atom_width(12);
    for (std::size_t& width : atom_width)
        width = 2 + rng.nextBelow(4);
    BitMatrix spikes(150, 330);
    for (std::size_t r = 0; r < spikes.rows(); ++r) {
        const std::size_t block = rng.nextBelow(4);
        for (std::size_t n = 1 + rng.nextBelow(3); n > 0; --n) {
            const std::size_t atom = rng.nextBelow(3);
            for (std::size_t c = 0; c < atom_width[3 * block + atom]; ++c)
                spikes.set(r, 80 * block + 5 * atom + c);
        }
    }
    for (const std::size_t k : {16UL, 100UL, 130UL}) {
        DensityOptions opt;
        opt.tile.m = 64;
        opt.tile.k = k;
        opt.two_prefix = true;
        opt.max_sampled_tiles = 0;
        DensityReport want;
        for (const auto& [r0, c0] :
             sampleTiles(spikes.rows(), spikes.cols(), opt.tile, 0).origins)
            want.merge(rowByRowReport(
                bitByBitTile(spikes, r0, c0, opt.tile.m, opt.tile.k)));
        const DensityReport got = analyzeMatrix(spikes, opt);
        EXPECT_EQ(fields(got), fields(want)) << "k=" << k;
        EXPECT_GT(got.rows_two_prefix, 0.0) << "k=" << k;
    }
}

TEST(Density, ClusteredMatricesSparserUnderProduct)
{
    ActivationProfile clustered;
    clustered.bit_density = 0.3;
    clustered.cluster_fraction = 0.9;
    clustered.bank_size = 6;
    clustered.subset_drop_prob = 0.3;
    clustered.temporal_repeat = 0.4;
    ActivationProfile iid = clustered;
    iid.cluster_fraction = 0.0;
    iid.temporal_repeat = 0.0;

    const BitMatrix mc = SpikeGenerator(clustered, 5).generate(
        1024, 64, 4, 0);
    const BitMatrix mi = SpikeGenerator(iid, 5).generate(1024, 64, 4, 0);
    DensityOptions opt;
    opt.max_sampled_tiles = 0;
    const double dc = analyzeMatrix(mc, opt).productDensity();
    const double di = analyzeMatrix(mi, opt).productDensity();
    EXPECT_LT(dc, di)
        << "combinatorial structure must increase product sparsity";
}

TEST(Density, MergeAddsFields)
{
    DensityReport a, b;
    a.bits_total = 10;
    a.bits_set = 4;
    a.pattern_bits_one = 2;
    b.bits_total = 10;
    b.bits_set = 6;
    b.pattern_bits_one = 3;
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.bitDensity(), 0.5);
    EXPECT_DOUBLE_EQ(a.productDensity(), 0.25);
}

TEST(Density, WorkloadAnalysisProducesPaperLikeNumbers)
{
    // VGG-16/CIFAR100: bit ~34%, product well below 5% (Table I).
    const Workload w = makeWorkload("VGG16", "CIFAR100");
    DensityOptions opt;
    opt.max_sampled_tiles = 16; // keep the test fast
    const DensityReport r = analyzeWorkload(w, opt, 7);
    EXPECT_NEAR(r.bitDensity(), 0.3421, 0.05);
    EXPECT_LT(r.productDensity(), 0.08);
    EXPECT_GT(r.reductionVsBit(), 4.0);
}

TEST(Density, SamplingApproximatesFull)
{
    ActivationProfile p;
    p.bit_density = 0.25;
    const BitMatrix m = SpikeGenerator(p, 9).generate(2048, 64, 4, 0);
    DensityOptions full;
    full.max_sampled_tiles = 0;
    DensityOptions sampled;
    sampled.max_sampled_tiles = 8;
    const double d_full = analyzeMatrix(m, full).productDensity();
    const double d_sampled = analyzeMatrix(m, sampled).productDensity();
    EXPECT_NEAR(d_sampled / d_full, 1.0, 0.15);
}

TEST(Density, WorkloadReportsArePinnedExactly)
{
    // Tables I, II and V and Fig. 11 read these reports. The values are
    // exact (hex floats) at the default 96 sampled tiles, so any change
    // to prefix selection, the second-prefix search or tile sampling
    // shows up here, not only beyond the calibration tolerances.
    struct Pin
    {
        const char* model;
        const char* dataset;
        bool two_prefix;
        std::vector<double> expected;
    };
    const Pin pins[] = {
        {"SpikeBERT", "SST-2", false,
         {0x1.680cp+24, 0x1.804dcp+21, 0x1.dc44p+17, 0x1.dc44p+17,
          0x1.680cp+20, 0x1.36392p+20, 0x0p+0, 0x1.1aaeap+20,
          0x1.b8a8p+16}},
        {"SpikeBERT", "SST-2", true,
         {0x1.680cp+24, 0x1.804dcp+21, 0x1.dc44p+17, 0x1.d5e9p+17,
          0x1.680cp+20, 0x1.36392p+20, 0x1.904p+10, 0x1.1aaeap+20,
          0x1.b8a8p+16}},
        {"SpikingBERT", "SST-2", false,
         {0x1.e03p+22, 0x1.86b76p+20, 0x1.92198p+17, 0x1.92198p+17,
          0x1.e03p+18, 0x1.b9afcp+18, 0x0p+0, 0x1.667ccp+18,
          0x1.4cccp+16}},
        {"SpikingBERT", "SST-2", true,
         {0x1.e03p+22, 0x1.86b76p+20, 0x1.92198p+17, 0x1.8198p+17,
          0x1.e03p+18, 0x1.b9afcp+18, 0x1.00ep+12, 0x1.667ccp+18,
          0x1.4cccp+16}},
        {"VGG16", "CIFAR100", false,
         {0x1.90cp+22, 0x1.f79448p+20, 0x1.b1d34p+17, 0x1.b1d34p+17,
          0x1.90cp+18, 0x1.72fap+18, 0x0p+0, 0x1.42b96p+18,
          0x1.8205p+15}},
        {"VGG16", "CIFAR100", true,
         {0x1.90cp+22, 0x1.f79448p+20, 0x1.b1d34p+17, 0x1.aa00cp+17,
          0x1.90cp+18, 0x1.72fap+18, 0x1.c8cp+10, 0x1.42b96p+18,
          0x1.8205p+15}},
    };
    for (const Pin& pin : pins) {
        DensityOptions opt;
        opt.two_prefix = pin.two_prefix;
        const DensityReport r =
            analyzeWorkload(makeWorkload(pin.model, pin.dataset), opt, 7);
        EXPECT_EQ(fields(r), pin.expected)
            << pin.model << "/" << pin.dataset
            << " two_prefix=" << pin.two_prefix;
    }
}

} // namespace
} // namespace prosperity
