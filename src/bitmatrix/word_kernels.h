/**
 * @file
 * Fused 64-bit word-level kernels over packed bit spans.
 *
 * These are the innermost loops of the simulator: every hot path that
 * touches spike bits (prefix selection's TCAM model, the residual XOR,
 * the density analyses) bottoms out here, operating on whole 64-bit words
 * instead of individual bits. The functions are deliberately free of
 * class state so they can run over raw `BitVector::words()` and tile
 * row spans.
 *
 * All kernels assume canonical operands: unused tail bits beyond the
 * logical width are zero. `BitVector` maintains that invariant through
 * its single masked-write path (see BitVector::storeWord), and
 * extractTile masks every tile row's last word, so spans obtained from
 * `BitVector::words()` and `TileWords::row()` are always safe inputs.
 *
 * `popcountWords` and `signatureScanWords` are also the *scalar
 * reference tier* of the runtime SIMD dispatch (bitmatrix/
 * simd_dispatch.h), which adds AVX2 and AVX-512 specializations that
 * must be bit-identical to these loops on every input — the
 * differential suite in tests/test_simd_kernels.cc enforces it. Hot
 * paths call those two through the dispatched table; the subset, any
 * and signature loops are called directly.
 */

#ifndef PROSPERITY_BITMATRIX_WORD_KERNELS_H
#define PROSPERITY_BITMATRIX_WORD_KERNELS_H

#include <bit>
#include <cstddef>
#include <cstdint>

namespace prosperity {

/** Total set bits across `n` words. */
inline std::size_t
popcountWords(const std::uint64_t* words, std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::size_t>(std::popcount(words[i]));
    return count;
}

/**
 * Subset test with early exit: true iff every set bit of `sub` is also
 * set in `super` — (sub & ~super) == 0 word by word, returning at the
 * first violating word. This is the TCAM match line at word level.
 */
inline bool
isSubsetOfWords(const std::uint64_t* sub, const std::uint64_t* super,
                std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (sub[i] & ~super[i])
            return false;
    return true;
}

/** Whether any of `n` words is non-zero. */
inline bool
anyWord(const std::uint64_t* words, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (words[i])
            return true;
    return false;
}

/**
 * 64-bit occupancy signature of a packed span: the span's bit positions
 * are divided into 64 contiguous groups and signature bit g is set iff
 * any bit in group g is set.
 *
 * The signature preserves the subset order: if span A is a bitwise
 * subset of span B then `signatureWords(A) & ~signatureWords(B) == 0`.
 * The converse does not hold — the signature is a cheap *necessary*
 * condition used to reject non-subsets in one word operation before a
 * full comparison.
 *
 * For n == 1 the signature is the word itself (the filter is exact);
 * for 2 <= n <= 64 each signature bit covers one word; beyond that each
 * bit covers ceil(n / 64) consecutive words.
 */
inline std::uint64_t
signatureWords(const std::uint64_t* words, std::size_t n)
{
    if (n == 0)
        return 0;
    if (n == 1)
        return words[0];
    const std::size_t group = (n + 63) / 64;
    std::uint64_t sig = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (words[i])
            sig |= 1ULL << (i / group);
    return sig;
}

/**
 * Signature-prefilter scan: append to `out` every index t in [0, n)
 * whose candidate signature passes the subset prefilter against
 * `query_sig` — (sigs[t] & ~query_sig) == 0 — in ascending order, and
 * return the number written. This is prefix selection's candidate sweep
 * hoisted over a contiguous array so the SIMD tiers can test several
 * candidates per instruction.
 *
 * Contract: `out` must have room for n entries, and entries past the
 * returned count are unspecified — the vector tiers extract survivors
 * branchlessly (compress stores), scribbling up to one vector of
 * losers past the live prefix before the next batch overwrites them.
 * Match masks are inherently unpredictable, so a per-bit extraction
 * loop would mispredict away the gain of the vector compare.
 */
inline std::size_t
signatureScanWords(const std::uint64_t* sigs, std::size_t n,
                   std::uint64_t query_sig, std::uint32_t* out)
{
    const std::uint64_t not_query = ~query_sig;
    std::size_t count = 0;
    for (std::size_t t = 0; t < n; ++t)
        if ((sigs[t] & not_query) == 0)
            out[count++] = static_cast<std::uint32_t>(t);
    return count;
}

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_WORD_KERNELS_H
