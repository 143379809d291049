#include "product_gemm.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "bitmatrix/word_kernels.h"
#include "core/prefix_select.h"
#include "sim/logging.h"

namespace prosperity {

ProductGemm::Result
ProductGemm::multiply(const BitMatrix& spikes,
                      const WeightMatrix& weights) const
{
    PROSPERITY_ASSERT(spikes.cols() == weights.rows(),
                      "GeMM inner dimensions disagree");
    const std::size_t M = spikes.rows();
    const std::size_t K = spikes.cols();
    const std::size_t N = weights.cols();

    Result result;
    result.output = OutputMatrix(M, N, 0);
    result.dense_ops = static_cast<double>(M) * static_cast<double>(K) *
                       static_cast<double>(N);

    TileWords tile;                      // refilled for every tile
    std::vector<std::uint64_t> pattern; // one row's residual words
    for (std::size_t r0 = 0; r0 < M; r0 += tile_.m) {
        for (std::size_t c0 = 0; c0 < K; c0 += tile_.k) {
            extractTile(spikes, r0, c0, tile_.m, tile_.k, tile);
            const PrefixSelection sel = selectPrefixes(tile);
            const std::size_t rows = tile.rows;

            // Issue order: stable by number of ones. A prefix has fewer
            // ones than its row, or as many and a smaller index, so it
            // always issues first.
            std::vector<std::size_t> order(rows);
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return sel.popcounts[a] < sel.popcounts[b];
                             });

            // Tile-local output rows: the Processor's output buffer.
            std::vector<std::vector<std::int32_t>> local(
                rows, std::vector<std::int32_t>(N, 0));

            for (const std::size_t row : order) {
                std::vector<std::int32_t>& acc = local[row];
                const std::span<const std::uint64_t> bits = tile.row(row);
                pattern.assign(bits.begin(), bits.end());
                if (sel.prefix[row] != PrefixSelection::kNoPrefix) {
                    // Step 9: prefix result is the starting partial sum;
                    // the XOR unit leaves the residual bits.
                    const auto p = static_cast<std::size_t>(sel.prefix[row]);
                    acc = local[p];
                    const std::span<const std::uint64_t> prefix =
                        tile.row(p);
                    for (std::size_t w = 0; w < pattern.size(); ++w)
                        pattern[w] ^= prefix[w];
                    ++result.prefix_hits;
                    if (anyWord(pattern.data(), pattern.size()))
                        ++result.partial_matches;
                    else
                        ++result.exact_matches;
                }
                // Steps 10-11: accumulate the residual pattern's weights.
                for (std::size_t w = 0; w < pattern.size(); ++w) {
                    for (std::uint64_t word = pattern[w]; word != 0;
                         word &= word - 1) {
                        const std::size_t bit =
                            w * 64 +
                            static_cast<std::size_t>(std::countr_zero(word));
                        const std::int32_t* wrow = weights.rowPtr(c0 + bit);
                        for (std::size_t col = 0; col < N; ++col)
                            acc[col] += wrow[col];
                        result.product_ops += static_cast<double>(N);
                    }
                }
                result.bit_ops +=
                    static_cast<double>(sel.popcounts[row]) *
                    static_cast<double>(N);
            }

            // Step 12: accumulate the tile's rows onto the output.
            for (std::size_t row = 0; row < rows; ++row) {
                std::int32_t* out = result.output.rowPtr(r0 + row);
                for (std::size_t col = 0; col < N; ++col)
                    out[col] += local[row][col];
            }
        }
    }
    return result;
}

OutputMatrix
ProductGemm::referenceMultiply(const BitMatrix& spikes,
                               const WeightMatrix& weights)
{
    PROSPERITY_ASSERT(spikes.cols() == weights.rows(),
                      "GeMM inner dimensions disagree");
    const std::size_t M = spikes.rows();
    const std::size_t N = weights.cols();
    OutputMatrix out(M, N, 0);
    for (std::size_t r = 0; r < M; ++r) {
        const BitVector& row = spikes.row(r);
        std::int32_t* acc = out.rowPtr(r);
        for (std::size_t bit = row.findFirst(); bit < spikes.cols();
             bit = row.findNext(bit)) {
            const std::int32_t* w = weights.rowPtr(bit);
            for (std::size_t col = 0; col < N; ++col)
                acc[col] += w[col];
        }
    }
    return out;
}

} // namespace prosperity
