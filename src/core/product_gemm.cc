#include "product_gemm.h"

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

    DistinctRows distinct;              // one workspace for every tile
    std::vector<std::uint64_t> pattern; // one row's residual words
    // A non-empty row's words: those of its value.
    const auto wordsOf = [&](std::size_t row) {
        return distinct.words(
            static_cast<std::size_t>(distinct.valueOf(row)));
    };
    for (std::size_t r0 = 0; r0 < M; r0 += tile_.m) {
        for (std::size_t c0 = 0; c0 < K; c0 += tile_.k) {
            distinct.select(spikes, r0, c0, tile_.m, tile_.k);
            const PrefixSelection sel = selectPrefixes(distinct);
            const std::size_t rows = distinct.rows();

            // Tile-local output rows: the Processor's output buffer.
            std::vector<std::vector<std::int32_t>> local(
                rows, std::vector<std::int32_t>(N, 0));

            // Issue order: a prefix always issues before its rows, and
            // empty rows (no spikes, no prefix) issue nothing.
            for (const std::size_t row : sel.order) {
                std::vector<std::int32_t>& acc = local[row];
                const std::span<const std::uint64_t> bits = wordsOf(row);
                pattern.assign(bits.begin(), bits.end());
                if (sel.prefix[row] != PrefixSelection::kNoPrefix) {
                    // Step 9: prefix result is the starting partial sum;
                    // the XOR unit leaves the residual bits.
                    const auto p = static_cast<std::size_t>(sel.prefix[row]);
                    acc = local[p];
                    const std::span<const std::uint64_t> prefix =
                        wordsOf(p);
                    for (std::size_t w = 0; w < pattern.size(); ++w)
                        pattern[w] ^= prefix[w];
                    ++result.prefix_hits;
                    if (anyWord(pattern.data(), pattern.size()))
                        ++result.partial_matches;
                    else
                        ++result.exact_matches;
                }
                // Steps 10-11: accumulate the residual pattern's weights.
                forEachSetBit(
                    pattern.data(), pattern.size(), [&](std::size_t bit) {
                        const std::int32_t* wrow = weights.rowPtr(c0 + bit);
                        for (std::size_t col = 0; col < N; ++col)
                            acc[col] += wrow[col];
                        result.product_ops += static_cast<double>(N);
                    });
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
        std::int32_t* acc = out.rowPtr(r);
        forEachSetBit(spikes.row(r).data(), spikes.rowWords(),
                      [&](std::size_t bit) {
                          const std::int32_t* w = weights.rowPtr(bit);
                          for (std::size_t col = 0; col < N; ++col)
                              acc[col] += w[col];
                      });
    }
    return out;
}

} // namespace prosperity
