/**
 * @file
 * Fused 64-bit word-level kernels over packed bit spans.
 *
 * These are the innermost loops of the simulator: every hot path that
 * touches spike bits (prefix selection's TCAM model, the residual XOR,
 * the density analyses, the baselines' row reads) bottoms out here,
 * operating on whole 64-bit words instead of individual bits. The
 * functions are deliberately free of class state so they can run over
 * raw `BitMatrix::row()` spans.
 *
 * All kernels assume canonical operands: unused tail bits beyond the
 * logical width are zero. Every BitMatrix mutator keeps that invariant
 * (the word-granularity ones mask with lastWordMask), so spans obtained
 * from `BitMatrix::row()` are always safe inputs, and the prefix search
 * masks the last word of every tile row it reads in place.
 *
 * `popcountWords` is also the *scalar reference tier* of the runtime
 * SIMD dispatch (bitmatrix/simd_dispatch.h), which adds AVX2 and
 * AVX-512 specializations that must be bit-identical to this loop on
 * every input — the differential suite in tests/test_simd_kernels.cc
 * enforces it. Hot paths call popcount through the dispatched table;
 * the other loops are called directly.
 */

#ifndef PROSPERITY_BITMATRIX_WORD_KERNELS_H
#define PROSPERITY_BITMATRIX_WORD_KERNELS_H

#include <bit>
#include <cstddef>
#include <cstdint>

namespace prosperity {

/** Valid-bit mask of the last word of a `bits`-bit row. */
inline std::uint64_t
lastWordMask(std::size_t bits)
{
    const std::size_t tail = bits % 64;
    return tail == 0 ? ~0ULL : (1ULL << tail) - 1;
}

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

/**
 * Call `fn(pos)` for every set bit of `n` words, in ascending position
 * order (the Processor's address decode, one bit-scan per spike).
 */
template <typename Fn>
inline void
forEachSetBit(const std::uint64_t* words, std::size_t n, Fn&& fn)
{
    for (std::size_t w = 0; w < n; ++w)
        for (std::uint64_t word = words[w]; word != 0; word &= word - 1)
            fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
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

/** Word `i`'s bits of an `n`-word span's signature (signatureWords),
 *  for a reader that takes the signature as it writes the words. */
inline std::uint64_t
signatureBits(std::uint64_t word, std::size_t i, std::size_t n)
{
    if (n == 1)
        return word;
    return word != 0 ? 1ULL << (i / ((n + 63) / 64)) : 0;
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
    std::uint64_t sig = 0;
    for (std::size_t i = 0; i < n; ++i)
        sig |= signatureBits(words[i], i, n);
    return sig;
}

/**
 * Backward signature-prefilter search: the largest index t < n whose
 * candidate signature passes the subset prefilter against `query_sig`
 * — (sigs[t] & ~query_sig) == 0 — or n when none passes. Reads at most
 * n words, from the end down.
 *
 * This is prefix selection's candidate search. Candidates are sorted by
 * (popcount, index), so the pruner's argmax is the last one that is a
 * subset: searching from the end stops at it instead of sweeping every
 * candidate. A caller whose signature is only a necessary condition
 * resumes below a false hit by passing that hit's index as the new n.
 */
inline std::size_t
lastSignatureMatch(const std::uint64_t* sigs, std::size_t n,
                   std::uint64_t query_sig)
{
    const std::uint64_t not_query = ~query_sig;
    for (std::size_t t = n; t-- > 0;)
        if ((sigs[t] & not_query) == 0)
            return t;
    return n;
}

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_WORD_KERNELS_H
