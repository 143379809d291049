#include "prefix_select.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"

namespace prosperity {

namespace {

constexpr std::uint64_t kGoldenRatio = 0x9E3779B97F4A7C15ULL;

/** Multiplicative hash of `n` words: a wide row's copy-table key. */
std::uint64_t
hashWords(const std::uint64_t* words, std::size_t n)
{
    std::uint64_t key = 0;
    for (std::size_t w = 0; w < n; ++w)
        key = (key ^ words[w]) * kGoldenRatio;
    return key;
}

} // namespace

PrefixSelection
selectPrefixes(const BitMatrix& tile)
{
    const std::size_t m = tile.rows();
    PrefixSelection sel;
    sel.popcounts.resize(m);
    sel.prefix.assign(m, PrefixSelection::kNoPrefix);
    if (m == 0)
        return sel;

    // Copies, in one pass in index order. An equal-popcount candidate
    // is a subset only if it is identical, and the argmax takes the
    // most ones with ties to the largest index, so a row with an
    // earlier copy selects that value's most recent earlier copy (and
    // shares its popcount). An open-addressing table (linear probing,
    // a power of two of at least 2m slots, so at most half full) holds
    // each value's latest row + 1. For one-word rows (every k <= 64
    // tile, including the paper's 256x16 ones) the signature is the
    // row, so it is the key and equal keys are equal rows; wider rows
    // key by a hash and compare their words. A zero signature is an
    // empty row, which neither selects nor serves as a prefix (the
    // TCAM's valid bit masks it out). Only a value's first copy counts
    // its ones, through the dispatched SIMD table, and is left to
    // search; `last` marks each value's last copy.
    const SimdOps& ops = simdOps();
    const std::size_t nwords = tile.rowWords();
    const bool one_word = nwords == 1;
    std::vector<std::uint64_t> sig(m);
    std::vector<std::uint64_t> wide_keys(one_word ? 0 : m);
    const std::uint64_t* keys = one_word ? sig.data() : wide_keys.data();
    const std::size_t slots = std::bit_ceil(2 * m);
    const int shift = 64 - std::countr_zero(slots);
    std::vector<std::uint32_t> table(slots, 0);
    std::vector<std::uint8_t> last(m, 0);
    std::vector<std::uint32_t> firsts;
    firsts.reserve(m);
    std::size_t max_pc = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t* row = tile.row(i).data();
        sig[i] = signatureWords(row, nwords);
        if (sig[i] == 0)
            continue;
        if (!one_word)
            wide_keys[i] = hashWords(row, nwords);
        const std::uint64_t key = keys[i];
        std::size_t s =
            static_cast<std::size_t>((key * kGoldenRatio) >> shift);
        for (;; s = (s + 1) & (slots - 1)) {
            if (table[s] == 0) {
                sel.popcounts[i] = ops.popcountWords(row, nwords);
                max_pc = std::max(max_pc, sel.popcounts[i]);
                firsts.push_back(static_cast<std::uint32_t>(i));
                break;
            }
            const std::size_t j = table[s] - 1;
            if (keys[j] == key &&
                (one_word || std::ranges::equal(tile.row(j), tile.row(i)))) {
                sel.popcounts[i] = sel.popcounts[j];
                sel.prefix[i] = static_cast<std::int32_t>(j);
                last[j] = 0;
                break;
            }
        }
        table[s] = static_cast<std::uint32_t>(i + 1);
        last[i] = 1;
    }
    if (firsts.empty())
        return sel; // all rows empty: no queries, no candidates

    // Counting-sort the non-empty rows by (popcount, index): the issue
    // order, in which every prefix precedes its rows. next[p] starts at
    // popcount p's first slot, and distinct_start[p] at its first
    // distinct value's.
    std::vector<std::size_t> next(max_pc + 2, 0);
    std::vector<std::size_t> distinct_start(max_pc + 2, 0);
    for (std::size_t i = 0; i < m; ++i)
        ++next[sel.popcounts[i] + 1];
    for (const std::uint32_t i : firsts)
        ++distinct_start[sel.popcounts[i] + 1];
    next[1] = 0; // empty rows are not issued
    for (std::size_t p = 1; p <= max_pc + 1; ++p) {
        next[p] += next[p - 1];
        distinct_start[p] += distinct_start[p - 1];
    }
    std::vector<std::uint32_t>& order = sel.order;
    order.resize(next[max_pc + 1]);
    for (std::size_t i = 0; i < m; ++i)
        if (sel.popcounts[i] > 0)
            order[next[sel.popcounts[i]]++] = static_cast<std::uint32_t>(i);

    // The distinct values: `order` filtered to each value's last copy,
    // so they ascend in (popcount, last index), with their signatures
    // gathered into one contiguous array. Every row is written and
    // only last copies advance the cursor, so the filter has no
    // branch.
    std::vector<std::uint64_t> distinct_sig(order.size());
    std::vector<std::uint32_t> distinct_row(order.size());
    std::size_t d = 0;
    for (const std::uint32_t r : order) {
        distinct_sig[d] = sig[r];
        distinct_row[d] = r;
        d += last[r];
    }

    // First copies. No equal-popcount row is a subset of a first copy
    // (it would be an earlier copy), and among the rows of fewer ones
    // a value's last copy beats its other copies, so a first copy's
    // candidates are the distinct values of lower popcount. They
    // ascend in (popcount, index), so the last true subset is the
    // argmax with ties to the largest index: search backward from the
    // row's popcount bucket and stop at the first hit. One-word rows
    // take the first signature hit; wider rows confirm it word by word
    // and resume the search below a false hit.
    for (const std::uint32_t i : firsts) {
        for (std::size_t end = distinct_start[sel.popcounts[i]];;) {
            const std::size_t t =
                lastSignatureMatch(distinct_sig.data(), end, sig[i]);
            if (t == end)
                break;
            const std::uint32_t j = distinct_row[t];
            if (one_word ||
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
