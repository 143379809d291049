#include "prefix_select.h"

#include <algorithm>
#include <cstdint>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"

namespace prosperity {

PrefixSelection
selectPrefixes(const TileWords& tile)
{
    const std::size_t m = tile.rows;
    PrefixSelection sel;
    sel.popcounts.resize(m);
    sel.prefix.assign(m, PrefixSelection::kNoPrefix);
    if (m == 0)
        return sel;

    // Per-row popcounts and one-word occupancy signatures. Popcount
    // and the signature scan below go through the dispatched SIMD
    // table.
    const SimdOps& ops = simdOps();
    const std::size_t nwords = tile.row_words;
    std::vector<std::uint64_t> sig(m);
    std::size_t max_pc = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t* row = tile.row(i).data();
        sel.popcounts[i] = ops.popcountWords(row, nwords);
        sig[i] = signatureWords(row, nwords);
        max_pc = std::max(max_pc, sel.popcounts[i]);
    }
    if (max_pc == 0)
        return sel; // all rows empty: no queries, no candidates

    // Counting-sort the non-empty rows by (popcount, index); rank[i] is
    // row i's slot in `order`. The rows sorted before row i are exactly
    // its legal prefix candidates: rows with fewer ones, and rows with
    // as many ones and a smaller index. Rows sorted after it have more
    // ones (never a subset) or are the larger-index exact-match peers
    // that pruning rule 1 forbids. next[p] starts at popcount p's first
    // slot.
    std::vector<std::size_t> next(max_pc + 2, 0);
    for (std::size_t i = 0; i < m; ++i)
        if (sel.popcounts[i] > 0)
            ++next[sel.popcounts[i] + 1];
    for (std::size_t p = 1; p <= max_pc + 1; ++p)
        next[p] += next[p - 1];
    std::vector<std::uint32_t> order(next[max_pc + 1]);
    std::vector<std::size_t> rank(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
        if (sel.popcounts[i] == 0)
            continue;
        rank[i] = next[sel.popcounts[i]]++;
        order[rank[i]] = static_cast<std::uint32_t>(i);
    }

    // Signatures gathered in sorted order: each query scans one
    // contiguous array with the vectorized signatureScanWords kernel
    // (4 candidates per compare on AVX2, 8 on AVX-512) instead of
    // chasing order[] indirections word by word.
    std::vector<std::uint64_t> sig_sorted(order.size());
    for (std::size_t t = 0; t < order.size(); ++t)
        sig_sorted[t] = sig[order[t]];
    std::vector<std::uint32_t> survivors(order.size());

    // Survivors come out ascending in (popcount, index), so the last
    // true subset is the argmax with ties to the largest index. For
    // single-word rows (every k <= 64 tile, including the paper's
    // 256x16 ones) the signature IS the row and the scan is exact.
    const bool signature_is_exact = nwords == 1;
    for (std::size_t i = 0; i < m; ++i) {
        if (sel.popcounts[i] == 0)
            continue;
        const std::size_t kept = ops.signatureScanWords(
            sig_sorted.data(), rank[i], sig[i], survivors.data());
        for (std::size_t s = kept; s-- > 0;) {
            const std::uint32_t j = order[survivors[s]];
            if (signature_is_exact ||
                isSubsetOfWords(tile.row(j).data(), tile.row(i).data(),
                                nwords)) {
                sel.prefix[i] = static_cast<std::int32_t>(j);
                break;
            }
        }
    }
    return sel;
}

PrefixSelection
selectPrefixesNaive(const BitMatrix& tile)
{
    const std::size_t m = tile.rows();
    PrefixSelection sel;
    sel.popcounts.resize(m);
    sel.prefix.assign(m, PrefixSelection::kNoPrefix);
    for (std::size_t i = 0; i < m; ++i)
        sel.popcounts[i] = tile.row(i).popcount();

    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t no_i = sel.popcounts[i];
        if (no_i == 0)
            continue;
        std::size_t best = 0;
        for (std::size_t j = 0; j < m; ++j) {
            const std::size_t no_j = sel.popcounts[j];
            // Empty rows carry no reusable result; an exact-match peer
            // with a larger index issues after row i (rule 1).
            if (j == i || no_j == 0 || (no_j == no_i && j > i) ||
                !tile.row(j).isSubsetOf(tile.row(i)))
                continue;
            // Argmax on NO; ascending j hands ties to the largest
            // index (rules 2 and 3).
            if (no_j >= best) {
                best = no_j;
                sel.prefix[i] = static_cast<std::int32_t>(j);
            }
        }
    }
    return sel;
}

} // namespace prosperity
