#include "prefix_select.h"

#include <algorithm>
#include <cstdint>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"

namespace prosperity {

PrefixSelection
selectPrefixes(const BitMatrix& tile)
{
    const std::size_t m = tile.rows();
    PrefixSelection sel;
    sel.popcounts.resize(m);
    sel.prefix.assign(m, PrefixSelection::kNoPrefix);
    if (m == 0)
        return sel;

    // Per-row popcounts (through the dispatched SIMD table) and
    // one-word occupancy signatures.
    const SimdOps& ops = simdOps();
    const std::size_t nwords = tile.rowWords();
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
    std::vector<std::uint32_t>& order = sel.order;
    order.resize(next[max_pc + 1]);
    std::vector<std::size_t> rank(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
        if (sel.popcounts[i] == 0)
            continue;
        rank[i] = next[sel.popcounts[i]]++;
        order[rank[i]] = static_cast<std::uint32_t>(i);
    }

    // Signatures gathered in sorted order, so each query searches one
    // contiguous array instead of chasing order[] indirections.
    std::vector<std::uint64_t> sig_sorted(order.size());
    for (std::size_t t = 0; t < order.size(); ++t)
        sig_sorted[t] = sig[order[t]];

    // Candidates ascend in (popcount, index), so the last true subset
    // is the argmax with ties to the largest index: search backward
    // from the row's own slot and stop at the first hit. For
    // single-word rows (every k <= 64 tile, including the paper's
    // 256x16 ones) the signature IS the row, so the first signature
    // hit is the prefix; wider rows confirm it word by word and resume
    // the search below a false hit.
    const bool signature_is_exact = nwords == 1;
    for (std::size_t i = 0; i < m; ++i) {
        if (sel.popcounts[i] == 0)
            continue;
        for (std::size_t end = rank[i];;) {
            const std::size_t t =
                lastSignatureMatch(sig_sorted.data(), end, sig[i]);
            if (t == end)
                break;
            const std::uint32_t j = order[t];
            if (signature_is_exact ||
                isSubsetOfWords(tile.row(j).data(), tile.row(i).data(),
                                nwords)) {
                sel.prefix[i] = static_cast<std::int32_t>(j);
                break;
            }
            end = t;
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
    const std::size_t nwords = tile.rowWords();
    for (std::size_t i = 0; i < m; ++i) {
        sel.popcounts[i] = popcountWords(tile.row(i).data(), nwords);
        if (sel.popcounts[i] > 0)
            sel.order.push_back(static_cast<std::uint32_t>(i));
    }
    std::stable_sort(sel.order.begin(), sel.order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return sel.popcounts[a] < sel.popcounts[b];
                     });

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
                !isSubsetOfWords(tile.row(j).data(), tile.row(i).data(),
                                 nwords))
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
