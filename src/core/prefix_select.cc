#include "prefix_select.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

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

void
DistinctRows::select(const BitMatrix& matrix, std::size_t row0,
                     std::size_t col0, std::size_t m, std::size_t k)
{
    PROSPERITY_ASSERT(row0 <= matrix.rows() && col0 <= matrix.cols(),
                      "tile origin out of range");
    rows_ = std::min(matrix.rows() - row0, m);
    cols_ = std::min(matrix.cols() - col0, k);
    row_words_ = (cols_ + 63) / 64;
    m = rows_; // the cropped tile from here on
    empty_rows_ = 0;
    row_ids_.resize(m);
    bucket_.clear();
    values_.clear();
    if (m == 0)
        return;

    // The copy pass, from the last row to the first, so each value is
    // met first at its last copy and numbered then: numbers descend in
    // last copy. Each row is read in place into the next number's slot
    // (word w merges source word w + 1 when the tile is not aligned and
    // that word is in the row), kept if it is a new value; a zero
    // signature is an empty row. Only a value's last copy counts its
    // ones, through the dispatched SIMD table.
    const SimdOps& ops = simdOps();
    const std::size_t nwords = row_words_;
    const bool one_word = nwords == 1;
    const std::size_t stride = matrix.rowWords();
    const std::size_t shift = col0 % 64;
    const std::size_t in_row = stride - col0 / 64; // source words left
    const std::uint64_t last_mask = lastWordMask(cols_);
    const std::uint64_t* const source = matrix.row(row0).data() + col0 / 64;
    const std::size_t slots = std::bit_ceil(2 * m);
    const int hash_shift = 64 - std::countr_zero(slots);
    table_.assign(slots, 0);
    keys_.resize(m);
    found_.resize(m);
    found_words_.resize(m * nwords);
    // Raw pointers and a local count keep the loop's state in
    // registers; members would be reloaded after every 64-bit store
    // and every call through the SIMD table.
    std::uint32_t* const table = table_.data();
    std::uint32_t* const row_ids = row_ids_.data();
    std::uint64_t* const keys = keys_.data();
    std::uint64_t* const found_words = found_words_.data();
    Value* const found = found_.data();
    std::uint32_t n = 0;
    std::uint32_t max_pc = 0;
    std::size_t empty_rows = 0;
    for (std::size_t i = m; i-- > 0;) {
        const std::uint64_t* const src = source + i * stride;
        std::uint64_t* const row = found_words + n * nwords;
        std::uint64_t sig = 0;
        for (std::size_t w = 0; w < nwords; ++w) {
            std::uint64_t word = src[w] >> shift;
            if (shift != 0 && w + 1 < in_row)
                word |= src[w + 1] << (64 - shift);
            word &= w + 1 < nwords ? ~std::uint64_t{0} : last_mask;
            row[w] = word;
            sig |= signatureBits(word, w, nwords);
        }
        if (sig == 0) {
            row_ids[i] = kEmpty;
            ++empty_rows;
            continue;
        }
        const std::uint64_t key = one_word ? sig : hashWords(row, nwords);
        for (std::size_t s = static_cast<std::size_t>(
                 (key * kGoldenRatio) >> hash_shift);
             ; s = (s + 1) & (slots - 1)) {
            if (table[s] == 0) {
                const auto pc = static_cast<std::uint32_t>(
                    ops.popcountWords(row, nwords));
                max_pc = std::max(max_pc, pc);
                keys[n] = key;
                found[n] = {1, pc, static_cast<std::uint32_t>(i),
                            PrefixSelection::kNoPrefix, 1};
                row_ids[i] = n;
                table[s] = ++n;
                break;
            }
            const std::uint32_t id = table[s] - 1;
            if (keys[id] == key &&
                (one_word || std::equal(row, row + nwords,
                                        found_words + id * nwords))) {
                ++found[id].copies;
                row_ids[i] = id;
                break;
            }
        }
    }
    empty_rows_ = empty_rows;
    if (n == 0)
        return; // all rows empty: no queries, no candidates

    // A stable counting sort by popcount. Walking the numbers down
    // visits the values in ascending last copy, so each bucket fills
    // in (popcount, last copy) order with no second sort. Afterwards
    // bucket_[p - 1] is popcount p's first position.
    bucket_.assign(max_pc + 1, 0);
    for (std::uint32_t id = 0; id < n; ++id)
        ++bucket_[found_[id].popcount];
    std::uint32_t start = 0;
    for (std::uint32_t& b : bucket_) {
        const std::uint32_t count = b;
        b = start;
        start += count;
    }
    values_.resize(n);
    sigs_.resize(n);
    ids_.resize(n);
    positions_.resize(n);
    for (std::uint32_t id = n; id-- > 0;) {
        const std::uint32_t t = bucket_[found_[id].popcount]++;
        values_[t] = found_[id];
        sigs_[t] = signatureWords(found_words + id * nwords, nwords);
        ids_[t] = id;
        positions_[id] = t;
    }

    // The search. No value of equal popcount is a subset of another,
    // so a value's candidates are the values of fewer ones. A prefix
    // value comes first, so its depth is known when its values need it.
    for (std::uint32_t t = 0; t < n; ++t) {
        Value& value = values_[t];
        const std::int32_t hit =
            lastSubset(found_words + ids_[t] * nwords, value.popcount - 1);
        if (hit != PrefixSelection::kNoPrefix) {
            const Value& prefix = values_[static_cast<std::size_t>(hit)];
            value.prefix = hit;
            value.depth = prefix.depth + prefix.copies;
        }
    }
}

std::int32_t
DistinctRows::lastSubset(const std::uint64_t* words,
                         std::size_t max_ones) const
{
    // The values ascend in (popcount, last copy), so the last subset
    // is the argmax. A one-word signature hit is exact.
    const std::uint64_t sig = signatureWords(words, row_words_);
    for (std::size_t end = max_ones < bucket_.size() ? bucket_[max_ones]
                                                     : values_.size();
         ;) {
        const std::size_t hit = lastSignatureMatch(sigs_.data(), end, sig);
        if (hit == end)
            return PrefixSelection::kNoPrefix;
        if (row_words_ == 1 ||
            isSubsetOfWords(found_words_.data() + ids_[hit] * row_words_,
                            words, row_words_))
            return static_cast<std::int32_t>(hit);
        end = hit;
    }
}

PrefixSelection
selectPrefixes(const DistinctRows& distinct)
{
    const std::span<const DistinctRows::Value> values = distinct.values();
    const std::size_t m = distinct.rows();
    PrefixSelection sel;
    sel.popcounts.resize(m);
    sel.prefix.assign(m, PrefixSelection::kNoPrefix);
    if (values.empty())
        return sel; // no rows, or all empty

    // The issue order sorts the non-empty rows by (popcount, index),
    // so every prefix precedes its rows: next[p] starts at popcount
    // p's first slot. The values ascend in popcount, so the last has
    // the most ones.
    std::vector<std::size_t> next(values.back().popcount + 2, 0);
    for (const DistinctRows::Value& value : values)
        next[value.popcount + 1] += value.copies;
    for (std::size_t p = 1; p < next.size(); ++p)
        next[p] += next[p - 1];
    sel.order.resize(next.back());

    // Each row in index order: a value's later copy takes its latest
    // copy so far, and its first copy the last copy of its prefix
    // value.
    std::vector<std::int32_t> latest(values.size(),
                                     PrefixSelection::kNoPrefix);
    for (std::size_t i = 0; i < m; ++i) {
        const std::int32_t t = distinct.valueOf(i);
        if (t == PrefixSelection::kNoPrefix)
            continue;
        const auto pos = static_cast<std::size_t>(t);
        const DistinctRows::Value& value = values[pos];
        sel.popcounts[i] = value.popcount;
        std::int32_t& previous = latest[pos];
        if (previous != PrefixSelection::kNoPrefix)
            sel.prefix[i] = previous;
        else if (value.prefix != PrefixSelection::kNoPrefix)
            sel.prefix[i] = static_cast<std::int32_t>(
                values[static_cast<std::size_t>(value.prefix)].last);
        previous = static_cast<std::int32_t>(i);
        sel.order[next[value.popcount]++] = static_cast<std::uint32_t>(i);
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
