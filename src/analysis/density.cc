#include "density.h"

#include <vector>

#include "bitmatrix/word_kernels.h"
#include "core/prefix_select.h"
#include "gen/spike_generator.h"

namespace prosperity {

void
DensityReport::merge(const DensityReport& other)
{
    bits_total += other.bits_total;
    bits_set += other.bits_set;
    pattern_bits_one += other.pattern_bits_one;
    pattern_bits_two += other.pattern_bits_two;
    rows += other.rows;
    rows_one_prefix += other.rows_one_prefix;
    rows_two_prefix += other.rows_two_prefix;
    exact_matches += other.exact_matches;
    partial_matches += other.partial_matches;
}

namespace {

/** Analyze one cropped tile, optionally selecting a second prefix. */
DensityReport
analyzeTile(const TileWords& tile, bool two_prefix)
{
    const PrefixSelection sel = selectPrefixes(tile);
    DensityReport report;
    const std::size_t m = tile.rows;
    const std::size_t nwords = tile.row_words;
    report.rows = static_cast<double>(m);
    report.bits_total =
        static_cast<double>(m) * static_cast<double>(tile.cols);
    std::vector<std::uint64_t> residual(nwords);

    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t pops = sel.popcounts[i];
        const bool has_prefix = sel.prefix[i] != PrefixSelection::kNoPrefix;
        const auto p = static_cast<std::size_t>(sel.prefix[i]);
        const std::size_t residual_one =
            has_prefix ? pops - sel.popcounts[p] : pops;
        report.bits_set += static_cast<double>(pops);
        report.pattern_bits_one += static_cast<double>(residual_one);
        if (has_prefix) {
            report.rows_one_prefix += 1.0;
            if (residual_one == 0)
                report.exact_matches += 1.0;
            else
                report.partial_matches += 1.0;
        }

        // Second prefix: the largest row inside the residual row ^
        // prefix, hence disjoint from the first prefix. A useful second
        // prefix has at least two ones.
        std::size_t best_pops = 1;
        if (two_prefix && has_prefix && residual_one >= 2) {
            const std::span<const std::uint64_t> row = tile.row(i);
            const std::span<const std::uint64_t> prefix = tile.row(p);
            for (std::size_t w = 0; w < nwords; ++w)
                residual[w] = row[w] ^ prefix[w];
            for (std::size_t j = 0; j < m; ++j) {
                const std::size_t pops_j = sel.popcounts[j];
                if (pops_j > best_pops && pops_j <= residual_one &&
                    isSubsetOfWords(tile.row(j).data(), residual.data(),
                                    nwords))
                    best_pops = pops_j;
            }
        }
        if (best_pops > 1) {
            report.rows_two_prefix += 1.0;
            report.pattern_bits_two +=
                static_cast<double>(residual_one - best_pops);
        } else {
            report.pattern_bits_two += static_cast<double>(residual_one);
        }
    }
    return report;
}

} // namespace

DensityReport
analyzeMatrix(const BitMatrix& spikes, const DensityOptions& options)
{
    const TileConfig& tile = options.tile;
    const TileSample sample = sampleTiles(spikes.rows(), spikes.cols(),
                                          tile, options.max_sampled_tiles);
    const double scale = sample.scale;

    DensityReport total;
    TileWords words; // one buffer, refilled for every tile
    for (const auto& [r0, c0] : sample.origins) {
        extractTile(spikes, r0, c0, tile.m, tile.k, words);
        DensityReport tile_report = analyzeTile(words, options.two_prefix);
        tile_report.bits_total *= scale;
        tile_report.bits_set *= scale;
        tile_report.pattern_bits_one *= scale;
        tile_report.pattern_bits_two *= scale;
        tile_report.rows *= scale;
        tile_report.rows_one_prefix *= scale;
        tile_report.rows_two_prefix *= scale;
        tile_report.exact_matches *= scale;
        tile_report.partial_matches *= scale;
        total.merge(tile_report);
    }
    return total;
}

DensityReport
analyzeWorkload(const Workload& workload, const DensityOptions& options,
                std::uint64_t seed)
{
    const ModelSpec model = workload.buildModel();
    const SpikeGenerator gen(workload.profile, seed);

    DensityReport total;
    std::size_t layer_index = 0;
    for (const auto& layer : model.layers) {
        ++layer_index;
        if (!layer.isSpikingGemm())
            continue;
        // Honor a per-layer profile override (declarative models),
        // matching the runner's generation exactly.
        const BitMatrix spikes =
            layer.profile_override
                ? SpikeGenerator(*layer.profile_override, seed)
                      .generateLayer(layer, layer_index)
                : gen.generateLayer(layer, layer_index);
        total.merge(analyzeMatrix(spikes, options));
    }
    return total;
}

} // namespace prosperity
