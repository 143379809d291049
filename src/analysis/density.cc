#include "density.h"

#include <span>
#include <vector>

#include "core/prefix_select.h"
#include "core/tile_pipeline.h"
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

/**
 * The selected tile's report scaled by `scale`: summarizeTile's sums
 * and, with `two_prefix`, each value's second prefix (a later copy
 * matches exactly): the value with the most ones inside value ^ prefix
 * value, disjoint from the first prefix and useful from two ones on.
 */
DensityReport
tileReport(const DistinctRows& distinct, bool two_prefix, double scale,
           std::vector<std::uint64_t>& residual)
{
    const TileSummary summary = summarizeTile(distinct);
    const std::span<const DistinctRows::Value> values = distinct.values();
    std::size_t second_rows = 0;
    std::size_t second_ones = 0; // ones the second prefixes cover
    for (std::size_t t = 0; two_prefix && t < values.size(); ++t) {
        if (values[t].prefix == PrefixSelection::kNoPrefix)
            continue;
        const auto p = static_cast<std::size_t>(values[t].prefix);
        const std::size_t residual_ones =
            values[t].popcount - values[p].popcount;
        if (residual_ones < 2)
            continue;
        const std::span<const std::uint64_t> row = distinct.words(t);
        const std::span<const std::uint64_t> prefix = distinct.words(p);
        residual.resize(row.size());
        for (std::size_t w = 0; w < row.size(); ++w)
            residual[w] = row[w] ^ prefix[w];
        const std::int32_t second =
            distinct.lastSubset(residual.data(), residual_ones);
        if (second != PrefixSelection::kNoPrefix &&
            values[static_cast<std::size_t>(second)].popcount > 1) {
            ++second_rows;
            second_ones += values[static_cast<std::size_t>(second)].popcount;
        }
    }

    const auto scaled = [scale](std::size_t sum) {
        return static_cast<double>(sum) * scale;
    };
    DensityReport report;
    report.bits_total = static_cast<double>(summary.rows) *
                        static_cast<double>(summary.cols) * scale;
    report.bits_set = scaled(summary.ones);
    report.pattern_bits_one = scaled(summary.pattern_ones);
    report.pattern_bits_two = scaled(summary.pattern_ones - second_ones);
    report.rows = scaled(summary.rows);
    report.rows_one_prefix = scaled(summary.exact + summary.partial);
    report.rows_two_prefix = scaled(second_rows);
    report.exact_matches = scaled(summary.exact);
    report.partial_matches = scaled(summary.partial);
    return report;
}

} // namespace

DensityReport
analyzeMatrix(const BitMatrix& spikes, const DensityOptions& options)
{
    const TileConfig& tile = options.tile;
    const TileSample sample = sampleTiles(spikes.rows(), spikes.cols(),
                                          tile, options.max_sampled_tiles);

    DensityReport total;
    DistinctRows distinct; // one search workspace, reused for every tile
    std::vector<std::uint64_t> residual;
    for (const auto& [r0, c0] : sample.origins) {
        distinct.select(spikes, r0, c0, tile.m, tile.k);
        total.merge(tileReport(distinct, options.two_prefix, sample.scale,
                               residual));
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
        total.merge(
            analyzeMatrix(gen.generateLayer(layer, layer_index), options));
    }
    return total;
}

} // namespace prosperity
